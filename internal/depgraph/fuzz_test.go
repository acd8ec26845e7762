package depgraph

import (
	"bytes"
	"encoding/json"
	"testing"

	"depsense/internal/claims"
)

// FuzzBuildDataset derives D from a random follow graph and claim log —
// duplicate events, tied timestamps, out-of-range ids — with both the
// production BuildDataset and the map-based oracle (oracle_test.go), and
// demands the same Dataset (JSON and SparseView) or the same error.
func FuzzBuildDataset(f *testing.F) {
	f.Add([]byte{4, 3, 2, 1, 0, 2, 1, 0, 0, 0, 1, 1, 0, 1, 2, 1, 2})
	f.Add([]byte{3, 2, 3, 1, 0, 2, 1, 0, 2, 0, 0, 5, 1, 0, 5, 2, 0, 5, 0, 0, 4})
	f.Add([]byte{2, 2, 1, 1, 0, 0, 7, 0, 1, 0, 0})
	f.Add([]byte{5, 4, 4, 1, 0, 2, 0, 3, 1, 4, 3, 0, 1, 1, 1, 1, 1, 0, 1, 1, 3, 1, 2, 2, 2, 1, 4, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, m := 1+int(data[0]%8), 1+int(data[1]%8)
		g := NewGraph(n)
		edges := int(data[2] % 16)
		rest := data[3:]
		for ; edges > 0 && len(rest) >= 2; edges-- {
			_ = g.AddFollow(int(rest[0])%n, int(rest[1])%n)
			rest = rest[2:]
		}
		var events []Event
		for ; len(rest) >= 3; rest = rest[3:] {
			// Ids run one past the top so out-of-range events occur;
			// times come from a tiny range so ties are common.
			events = append(events, Event{
				Source:    int(rest[0]) % (n + 1),
				Assertion: int(rest[1]) % (m + 1),
				Time:      int64(rest[2] % 4),
			})
		}
		want, wantErr := mapBuildDataset(g, events, m)
		got, err := BuildDataset(g, events, m)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		requireSameDataset(t, got, want)
	})
}

func requireSameDataset(t *testing.T, got, want *claims.Dataset) {
	t.Helper()
	for _, enc := range []func(*claims.Dataset) any{
		func(d *claims.Dataset) any { return d },
		func(d *claims.Dataset) any { return d.Sparse() },
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
