package seqgen

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// drain pulls every sequence out of a Scanner.
func drain(t *testing.T, s *Scanner) ([]string, error) {
	t.Helper()
	var out []string
	for {
		seq, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, seq)
	}
}

// scannerInputs is the table the scanner is pinned to the batch reader
// on, and the seed corpus of its fuzz target.
var scannerInputs = []string{
	">a\nACGT\nacgt\n>b desc here\nTTTT\n",
	"; legacy comment\n>x\nAC GT\nCC\n; mid comment\nGG\n>y\nTT\n",
	"ACGT\n# comment\n\nacct\n>stray\nTTTT\n",
	"",
	"# only comments\n; nothing else\n",
	">only-header\n",                 // record with no data: error
	">dup\nAC\n>dup\nGT\n",           // duplicate ID: error
	"# preamble\nACGT\nACGT\nTTTT\n", // plain after comments
}

// TestScannerMatchesReadSequences pins the streaming scanner to the
// batch reader: same inputs, same sequences, same errors.
func TestScannerMatchesReadSequences(t *testing.T) {
	for _, in := range scannerInputs {
		checkScannerMatches(t, []byte(in))
	}
}

// FuzzScannerMatchesReadSequences extends the pin to any bytes: draining
// the Scanner yields exactly what ReadSequences returns, or both fail,
// and neither panics.  The Scanner decodes untrusted bulk-insert bodies.
func FuzzScannerMatchesReadSequences(f *testing.F) {
	for _, in := range scannerInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(checkScannerMatches)
}

func checkScannerMatches(t *testing.T, in []byte) {
	t.Helper()
	want, wantErr := ReadSequences(bytes.NewReader(in))
	got, gotErr := drain(t, NewScanner(bytes.NewReader(in)))
	if (wantErr == nil) != (gotErr == nil) {
		t.Errorf("input %q: scanner err %v, reader err %v", in, gotErr, wantErr)
		return
	}
	if wantErr != nil || len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("input %q: scanner %v, reader %v", in, got, want)
	}
}

// TestScannerStreams verifies sequences arrive incrementally — record N
// is available before the input beyond it is consumed — by feeding the
// scanner from a reader that fails after the first record's bytes.
func TestScannerStreams(t *testing.T) {
	head := ">a\nACGTACGT\n"
	r := io.MultiReader(strings.NewReader(head+">b\n"), failingReader{})
	s := NewScanner(r)
	seq, err := s.Next()
	if err != nil || seq != "ACGTACGT" {
		t.Fatalf("first record before the read failure: %q, %v", seq, err)
	}
	if _, err := s.Next(); err == nil {
		t.Fatal("the read failure must surface on the next record")
	}
	// Terminal: the error repeats instead of resurrecting the stream.
	if _, err := s.Next(); err == nil {
		t.Fatal("scanner errors must latch")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestScannerErrors pins the format violations.
func TestScannerErrors(t *testing.T) {
	if _, err := drain(t, NewScanner(strings.NewReader(">a\n>b\nACGT\n"))); err == nil ||
		!strings.Contains(err.Error(), "no sequence data") {
		t.Errorf("headerless record: %v", err)
	}
	if _, err := drain(t, NewScanner(strings.NewReader(">a\nAC\n>a\nGT\n"))); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate ID: %v", err)
	}
	if _, err := drain(t, NewScanner(strings.NewReader(">last\n"))); err == nil ||
		!strings.Contains(err.Error(), "no sequence data") {
		t.Errorf("trailing empty record: %v", err)
	}
}

// TestCorpusLoad pins the shared source resolution both commands use.
func TestCorpusLoad(t *testing.T) {
	got, err := Corpus{Gen: 5, GenLen: 8, Seed: 3}.Load()
	if err != nil || len(got) != 5 || len(got[0]) != 8 {
		t.Fatalf("generated corpus: %v, %v", got, err)
	}
	prot, err := Corpus{Gen: 2, GenLen: 6, Seed: 3, Protein: true}.Load()
	if err != nil || len(prot) != 2 {
		t.Fatalf("protein corpus: %v, %v", prot, err)
	}
	if reflect.DeepEqual(got[0], prot[0]) {
		t.Error("protein generator must differ from DNA")
	}
	fromStream, err := Corpus{Reader: strings.NewReader("ACGT\nTTTT\n")}.Load()
	if err != nil || !reflect.DeepEqual(fromStream, []string{"ACGT", "TTTT"}) {
		t.Fatalf("stream corpus: %v, %v", fromStream, err)
	}
	if _, err := (Corpus{Path: "x", Gen: 1, GenLen: 4}).Load(); err == nil {
		t.Error("file+generator must error")
	}
	if _, err := (Corpus{Gen: 3}).Load(); err == nil {
		t.Error("generator without a length must error")
	}
	if _, err := (Corpus{}).Load(); err == nil {
		t.Error("no source must error")
	}
	if _, err := (Corpus{Reader: strings.NewReader("# nothing\n")}).Load(); err == nil {
		t.Error("empty corpus must error")
	}
	if _, err := (Corpus{Path: "/nonexistent/db.fasta"}).Load(); err == nil {
		t.Error("missing file must error")
	}
}
