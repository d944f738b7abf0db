package serve

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzJobRequestExpand hardens job intake against arbitrary submissions:
// a document that strictly decodes must either be rejected by expand or
// expand to at most maxCells cells — exactly the count cellCount
// predicted — and neither outcome may allocate more than a small fixed
// budget, however large a cross-product the request names.
func FuzzJobRequestExpand(f *testing.F) {
	const (
		maxCells    = 64
		allocBudget = 8 << 20
	)
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := decodeJobRequest(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cells, err := req.expand(maxCells)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBudget {
			t.Fatalf("expand allocated %d bytes (budget %d)\ninput: %q", alloc, allocBudget, doc)
		}
		if err != nil {
			return
		}
		n := len(cells)
		if n == 0 || n > maxCells {
			t.Fatalf("expand accepted %d cells (limit %d)\ninput: %q", n, maxCells, doc)
		}
		if c := req.cellCount(); c != uint64(n) {
			t.Fatalf("cellCount predicted %d cells, expand produced %d\ninput: %q", c, n, doc)
		}
	})
}
