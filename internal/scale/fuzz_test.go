package scale

import (
	"bytes"
	"testing"
)

// FuzzRingCodec asserts that DecodeRing never panics on arbitrary input
// and that every successfully decoded ring re-encodes to a form that
// decodes to the same ring (canonical round trip).
func FuzzRingCodec(f *testing.F) {
	f.Add(EncodeRing(NewRing([]string{"a:1", "b:2", "c:3"}, 8)))
	f.Add(EncodeRing(NewRing(nil, 1)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 64, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRing(data)
		if err != nil {
			return
		}
		enc := EncodeRing(r)
		r2, err := DecodeRing(enc)
		if err != nil {
			t.Fatalf("re-decode of valid ring failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeRing(r2)) {
			t.Fatalf("encoding not canonical: %x vs %x", enc, EncodeRing(r2))
		}
		if r.Version != r2.Version || len(r.Nodes) != len(r2.Nodes) {
			t.Fatalf("round trip mismatch: %+v vs %+v", r, r2)
		}
		if len(r.Nodes) > 0 {
			if got := r.Lookup("probe"); got != r2.Lookup("probe") {
				t.Fatalf("routing differs after round trip")
			}
		}
	})
}
