// Package image defines the stripped binary image format that ClearView
// protects: raw code bytes, a load base, and an entry point. There are no
// symbols, relocation tables, procedure boundaries, or debug records — by
// design, matching the paper's "stripped Windows x86 binaries" constraint.
package image

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/isa"
)

// Image is a loadable stripped binary. Its code must not change once a
// machine has run it: the decode table (see Decoded) is built from it once.
type Image struct {
	Base  uint32 // load address of Code[0]
	Entry uint32 // initial program counter
	Code  []byte

	once    sync.Once
	decoded []isa.Inst
}

// End returns one past the last code address.
func (im *Image) End() uint32 { return im.Base + uint32(len(im.Code)) }

// Contains reports whether addr falls inside the code region.
func (im *Image) Contains(addr uint32) bool {
	return addr >= im.Base && addr < im.End()
}

// Validate checks structural sanity: a non-empty image whose entry point
// lies inside the code region.
func (im *Image) Validate() error {
	if len(im.Code) == 0 {
		return fmt.Errorf("image: empty code")
	}
	if !im.Contains(im.Entry) {
		return fmt.Errorf("image: entry %#x outside code [%#x,%#x)", im.Entry, im.Base, im.End())
	}
	return nil
}

const magic = 0x42565743 // "CWVB"

// Marshal serializes the image to a flat byte format:
// magic, base, entry, code length, code bytes (all little endian).
func (im *Image) Marshal() []byte {
	out := make([]byte, 16+len(im.Code))
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint32(out[4:], im.Base)
	binary.LittleEndian.PutUint32(out[8:], im.Entry)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(im.Code)))
	copy(out[16:], im.Code)
	return out
}

// Unmarshal parses a serialized image.
func Unmarshal(b []byte) (*Image, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("image: truncated header: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != magic {
		return nil, fmt.Errorf("image: bad magic %#x", binary.LittleEndian.Uint32(b))
	}
	n := binary.LittleEndian.Uint32(b[12:])
	if uint32(len(b)-16) < n {
		return nil, fmt.Errorf("image: truncated code: want %d have %d", n, len(b)-16)
	}
	im := &Image{
		Base:  binary.LittleEndian.Uint32(b[4:]),
		Entry: binary.LittleEndian.Uint32(b[8:]),
		Code:  append([]byte(nil), b[16:16+n]...),
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}
