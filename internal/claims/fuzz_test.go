package claims

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes into the dataset JSON decoder. The
// properties under test: decoding never panics on any input, and any input
// that decodes successfully survives an encode→decode round trip with an
// identical in-memory dataset (the codec normalizes — sorted indexes,
// dependent-mark folding — so a second trip must be a fixed point).
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{}`),
		[]byte(`{"sources":2,"assertions":2,"claims":[{"source":0,"assertion":1}]}`),
		[]byte(`{"sources":3,"assertions":2,"claims":[{"source":1,"assertion":0,"dependent":true}],"silentDependent":[{"source":2,"assertion":0}]}`),
		[]byte(`{"sources":-1,"assertions":-1}`),
		[]byte(`{"sources":9999999999,"assertions":1}`),
		[]byte(`{"sources":1,"assertions":1,"claims":[{"source":5,"assertion":0}]}`),
		[]byte(`{"sources":2,"assertions":1,"claims":[{"source":0,"assertion":0}],"silentDependent":[{"source":0,"assertion":0}]}`),
		[]byte(`not json`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Dataset
		if err := json.Unmarshal(data, &d); err != nil {
			return // malformed or rejected input: an error is the contract
		}
		if d.N() < 0 || d.M() < 0 || d.N() > MaxWireDim || d.M() > MaxWireDim {
			t.Fatalf("decoded dimensions escape validation: n=%d m=%d", d.N(), d.M())
		}
		enc, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("re-encode of successfully decoded dataset failed: %v", err)
		}
		var d2 Dataset
		if err := json.Unmarshal(enc, &d2); err != nil {
			t.Fatalf("decode of our own encoding failed: %v\nencoding: %s", err, enc)
		}
		if !reflect.DeepEqual(&d, &d2) {
			t.Fatalf("round trip not a fixed point:\nfirst:  %+v\nsecond: %+v", d.Summarize(), d2.Summarize())
		}
	})
}

// FuzzBuilder drives the production Builder and the map-based oracle
// (oracle_test.go) through one mark sequence — duplicates, dependent
// re-adds after independent ones, silent/claim conflicts, out-of-range
// indices — and demands the same Dataset (JSON and SparseView) or the same
// error, down to which conflicting pair is named. A second Build on the
// same Builder must reproduce the first.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 1, 1, 1, 1, 2, 0, 0})
	f.Add([]byte{4, 4, 2, 1, 1, 0, 1, 1, 2, 3, 3, 0, 3, 3, 2, 0, 0})
	f.Add([]byte{2, 2, 0, 5, 0, 2, 0, 9})
	f.Add([]byte{5, 3, 1, 4, 2, 0, 4, 2, 2, 4, 2, 0, 0, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := int(data[0]%9), int(data[1]%9)
		prod, oracle := NewBuilder(n, m), newMapBuilder(n, m)
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			// Indices run one past each end so out-of-range marks occur.
			i, j := int(ops[1]%byte(n+2))-1, int(ops[2]%byte(m+2))-1
			switch ops[0] % 3 {
			case 0:
				prod.AddClaim(i, j, false)
				oracle.AddClaim(i, j, false)
			case 1:
				prod.AddClaim(i, j, true)
				oracle.AddClaim(i, j, true)
			default:
				prod.MarkSilentDependent(i, j)
				oracle.MarkSilentDependent(i, j)
			}
		}
		want, wantErr := oracle.Build()
		for pass := 0; pass < 2; pass++ {
			got, err := prod.Build()
			requireSameBuild(t, got, err, want, wantErr)
		}
	})
}

// requireSameBuild fails unless two Build outcomes agree: the same error
// text, or datasets with identical JSON, summaries and sparse views.
func requireSameBuild(t *testing.T, got *Dataset, err error, want *Dataset, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, oracle %v", err, wantErr)
	}
	if err != nil {
		return
	}
	for _, enc := range []func(*Dataset) any{
		func(d *Dataset) any { return d },
		func(d *Dataset) any { return d.Summarize() },
		func(d *Dataset) any { return d.Sparse() },
	} {
		g, e1 := json.Marshal(enc(got))
		w, e2 := json.Marshal(enc(want))
		if e1 != nil || e2 != nil {
			t.Fatalf("encode: %v / %v", e1, e2)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("dataset differs from oracle:\n got  %s\n want %s", g, w)
		}
	}
}
