package index

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"racelogic/internal/seqgen"
)

// FuzzIndexDecode throws arbitrary bytes at the index decoder, which
// store.Read feeds the untrusted contents of a snapshot file.  Decode
// must never panic, and any index it accepts must come back deep-equal
// from an Encode→Decode round trip.
func FuzzIndexDecode(f *testing.F) {
	g := seqgen.NewDNA(59)
	for _, k := range []int{1, 3, 8} {
		ix, err := New(append(g.Database(12, 10), "AC"), k)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// A huge seed length with one k-mer claiming that many bytes: the
	// decoder must run into EOF, not allocate the claimed length.
	var huge []byte
	for _, v := range []uint64{1 << 40, 0, 0, 1, 1 << 40} {
		huge = binary.AppendUvarint(huge, v)
	}
	f.Add(append(huge, "ACGT"...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded index: %v", err)
		}
		if !reflect.DeepEqual(back, ix) {
			t.Fatal("Encode→Decode round trip changed the index")
		}
	})
}
