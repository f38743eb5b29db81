package sim

import "fmt"

// ring is the hotalloc fixture: Lookup is the clean hot path, the
// other hot methods each exercise one allocation kind.
type ring struct {
	slots []int
	head  int
	tags  map[uint64]int
}

// Lookup is allocation-free: the negative case.
//
//lint:hot
func (r *ring) Lookup(tag uint64) int {
	if i, ok := r.tags[tag]; ok {
		return r.slots[i]
	}
	return -1
}

// Push appends on the hot path; the finding is suppressed by the
// fixture's hotalloc.allow entry.
//
//lint:hot
func (r *ring) Push(v int) {
	r.slots = append(r.slots, v)
	r.head++
}

//lint:hot
func (r *ring) Grow() {
	r.slots = make([]int, 16) // BAD: make on the hot path
	r.describe()
}

// describe is not annotated but is reachable from Grow.
func (r *ring) describe() {
	fmt.Println("ring", r.head) // BAD: fmt call reached from a hot root
}

//lint:hot
func (r *ring) Drain(label string) {
	g := func(v int) { r.head = v } // BAD: closure on the hot path
	g(0)
	n := new(ring) // BAD: new on the hot path
	_ = n
	s := "ring:" + label // BAD: non-constant string concatenation
	_ = s
	var sink any
	sink = r.head // BAD: boxing an int into an interface
	_ = sink
	p := &ring{} // BAD: escaping composite literal
	_ = p
}

func consume(v any) { _ = v }

//lint:hot
func (r *ring) Report() {
	consume(r.head) // BAD: boxing an int into an interface argument
}

// coldPath allocates freely: it is neither hot nor reachable from a
// hot root, so hotalloc stays quiet.
func coldPath(r *ring) {
	r.slots = append(r.slots, 1)
	fmt.Println("cold", r.head)
}

// Check exercises the cold-block rule: a statement list that ends in
// panic is never entered by a correct run, so what it allocates on the
// way to the panic is not a hot-path allocation.
//
//lint:hot
func (r *ring) Check(v int) {
	if v < 0 {
		panic(fmt.Sprintf("ring: negative value %d", v)) // cold: the block ends in panic
	}
	switch {
	case v > len(r.slots):
		msg := fmt.Sprintf("ring: %d out of range", v) // cold: so does this clause
		panic(msg)
	case v == r.head:
		fmt.Println("ring: at head") // BAD: this clause returns normally
	}
}
