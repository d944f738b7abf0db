// Fixture for the hotalloc analyzer: //sim:hotpath functions must not
// contain allocation-inducing constructs.
package hotallocfix

import "fmt"

type ring struct {
	buf  []uint64
	tags map[uint64]int
}

// push grows its persistent field in place — the sanctioned amortized
// append form.
//
//sim:hotpath
func (r *ring) push(v uint64) {
	r.buf = append(r.buf, v)
}

//sim:hotpath
func (r *ring) badClosure() func() {
	return func() {} // want `closure literal in hot path badClosure`
}

//sim:hotpath
func (r *ring) badFmt(v uint64) string {
	return fmt.Sprintf("%d", v) // want `fmt\.Sprintf in hot path badFmt`
}

//sim:hotpath
func (r *ring) badMake(n int) {
	r.buf = make([]uint64, n) // want `make in hot path badMake`
}

//sim:hotpath
func (r *ring) badAppend(dst []uint64, v uint64) []uint64 {
	local := append(dst, v) // want `append in hot path badAppend`
	return local
}

//sim:hotpath
func (r *ring) badConcat(a, b string) string {
	return a + b // want `string concatenation in hot path badConcat`
}

//sim:hotpath
func (r *ring) badConvert(s string) []byte {
	return []byte(s) // want `string conversion in hot path badConvert`
}

//sim:hotpath
func (r *ring) badLiterals() {
	r.buf = []uint64{1, 2}  // want `slice/map literal in hot path badLiterals`
	r.tags = map[uint64]int{} // want `slice/map literal in hot path badLiterals`
	_ = &ring{}               // want `address-of composite literal in hot path badLiterals`
}

// panicIsCold may format inside panic: a dead simulator's allocations
// are irrelevant.
//
//sim:hotpath
func (r *ring) panicIsCold(i int) uint64 {
	if i < 0 || i >= len(r.buf) {
		panic(fmt.Sprintf("index %d out of range", i))
	}
	return r.buf[i]
}

//sim:hotpath
func (r *ring) suppressed(n int) {
	//simlint:allow hotalloc -- fixture: suppression must silence the finding
	r.buf = make([]uint64, n)
}

// notAnnotated allocates freely: without the directive nothing applies.
func (r *ring) notAnnotated(n int) []uint64 {
	out := make([]uint64, 0, n)
	return append(out, 1)
}

//sim:hotpath
func (r *ring) constConcatOK() string {
	const pre = "a"
	return pre + "b" // constant-folded: no run-time allocation
}

// chanSyncOK is a worker-pool loop shape: ranging over
// a command channel and handing back struct{}{} completion tokens.
// Channel operations and bare struct composite-literal *values* (not
// slice/map literals, not address-of) allocate nothing and stay clean.
//
//sim:hotpath
func (r *ring) chanSyncOK(cmd chan uint64, done chan struct{}) {
	for v := range cmd {
		r.buf[0] = v
		done <- struct{}{}
	}
}

// batchedRunOK is the batched warp-issue shape: carving sorted
// same-block runs out of a fixed scratch buffer with slice expressions
// and handing each subslice to a batched callee, falling back to
// per-element stepping when the callee declines. Re-slicing an existing
// backing array allocates nothing and must stay clean.
//
//sim:hotpath
func (r *ring) batchedRunOK(consume func([]uint64) bool) {
	s := r.buf[:]
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j]>>8 == s[i]>>8 {
			j++
		}
		if j > i+1 && consume(s[i:j]) {
			i = j
			continue
		}
		for ; i < j; i++ {
			r.buf[0] += s[i]
		}
	}
}
