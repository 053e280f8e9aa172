package image

import "repro/internal/isa"

// Decoded returns the image's code decoded once, built on first use and
// shared by every caller (every machine loaded from the image reads it, so
// it is safe for concurrent use): slot i holds the instruction encoded at
// Base + i*isa.InstSize. Only whole slots are covered, and a slot whose
// bytes do not decode holds an Inst whose Op is not Valid. Callers must not
// modify the slice, and the image's Code must not change once it is built.
func (im *Image) Decoded() []isa.Inst {
	im.once.Do(func() {
		im.decoded = make([]isa.Inst, len(im.Code)/isa.InstSize)
		for i := range im.decoded {
			in, err := isa.Decode(im.Code[i*isa.InstSize : (i+1)*isa.InstSize])
			if err != nil {
				in = isa.Inst{Op: isa.Op(0xFF)}
			}
			im.decoded[i] = in
		}
	})
	return im.decoded
}

// InstAt decodes the instruction at pc from the image's code bytes,
// aligned or not, returning false when the 8 bytes at pc are not all code
// (pc outside [Base, End-8]) or do not decode.
func (im *Image) InstAt(pc uint32) (isa.Inst, bool) {
	off := pc - im.Base
	if pc < im.Base || off >= uint32(len(im.Code)) || uint32(len(im.Code))-off < isa.InstSize {
		return isa.Inst{}, false
	}
	in, err := isa.Decode(im.Code[off : off+isa.InstSize])
	return in, err == nil
}
