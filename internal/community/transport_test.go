package community

import (
	"encoding/binary"
	"net"
	"testing"
)

// TestTCPEnvelopeCap: a frame header claiming a payload over the cap is
// refused before the payload is read or allocated, and the stream stays
// refused (its framing is lost).
func TestTCPEnvelopeCap(t *testing.T) {
	a, b := net.Pipe()
	recv := newTCPConn(a)
	defer recv.Close()
	defer b.Close()
	go func() {
		var hdr [tcpHeaderLen]byte
		hdr[0] = byte(MsgBatch)
		binary.LittleEndian.PutUint32(hdr[9:], maxEnvelopeBytes+1)
		_, _ = b.Write(hdr[:]) // and never the payload: a read would block
	}()
	if _, err := recv.Recv(); err == nil {
		t.Fatal("an over-cap frame was accepted")
	}
	if _, err := recv.Recv(); err == nil || IsTimeout(err) {
		t.Fatalf("the stream after an over-cap frame answered %v, want a lasting error", err)
	}
}
