package coherence

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The runtime checker's violation branches, fired on purpose: each test
// builds a legal state through real traffic, corrupts one line behind
// the protocol's back, and asserts the leading text of what the checker
// reports. No seeded protocol mutation reaches these states, since the
// protocols keep them out; a checker branch nothing fires could be
// silently broken.

const checkedBlk = rigBase + 0x700

// line returns the data-cache array of cpu and the line index at which
// it holds the block at addr.
func (r *rig) line(cpu int, addr uint32) (*cacheArray, int) {
	r.t.Helper()
	var arr *cacheArray
	switch c := r.DCaches[cpu].(type) {
	case *MESICache:
		arr = c.arr
	case *WTICache:
		arr = c.arr
	}
	l, hit := arr.probe(addr)
	if !hit {
		r.t.Fatalf("cpu %d does not hold %#x", cpu, addr)
	}
	return arr, l
}

// setState overwrites the state of cpu's copy of the block at addr.
func (r *rig) setState(cpu int, addr uint32, st LineState) {
	arr, l := r.line(cpu, addr)
	arr.state[l] = st
}

func wantViolation(t *testing.T, err error, prefix string) {
	t.Helper()
	if err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("checker reported %v; want %q...", err, prefix)
	}
}

// sharedPair leaves the block Shared in the caches of CPUs 0 and 1
// under MESI.
func sharedPair(t *testing.T) *rig {
	r := newRig(t, WBMESI, 2, 1)
	r.load(0, checkedBlk)
	r.load(1, checkedBlk)
	r.settle()
	r.check()
	return r
}

func TestCheckerTwoSuppliers(t *testing.T) {
	r := sharedPair(t)
	r.setState(0, checkedBlk, Modified)
	r.setState(1, checkedBlk, Modified)
	wantViolation(t, r.CheckRuntime(), fmt.Sprintf("coherence: SWMR: block %#x: two supplier holders", checkedBlk))
}

func TestCheckerExclusiveBesideCopies(t *testing.T) {
	r := sharedPair(t)
	r.setState(0, checkedBlk, Exclusive)
	wantViolation(t, r.CheckRuntime(), fmt.Sprintf("coherence: SWMR: block %#x: E holder cpu 0 coexists with 1 other copies", checkedBlk))
}

func TestCheckerSupplierNotOwner(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	r.load(0, checkedBlk)
	r.settle()
	r.setState(0, checkedBlk, Exclusive)
	wantViolation(t, r.CheckRuntime(), fmt.Sprintf("coherence: directory: block %#x: cpu 0 holds E but directory owner is -1", checkedBlk))
}

func TestCheckerSharedDiffersFromOwned(t *testing.T) {
	r := newRig(t, MOESI, 2, 1)
	r.store(0, checkedBlk, 7)
	r.load(1, checkedBlk)
	r.settle()
	if r.state(0, checkedBlk) != Owned || r.state(1, checkedBlk) != Shared {
		t.Fatalf("states %v, %v; want O and S", r.state(0, checkedBlk), r.state(1, checkedBlk))
	}
	r.check()
	arr, l := r.line(1, checkedBlk)
	arr.lineData(l)[0] ^= 0xff
	wantViolation(t, r.CheckRuntime(), fmt.Sprintf("coherence: value: block %#x: cpu 1 shared copy differs from the Owned copy", checkedBlk))
}

func TestCheckerCopyUnknownToDirectory(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	r.DCaches[0].(*WTICache).arr.fill(checkedBlk, Shared, make([]byte, DefaultParams(1).BlockBytes))
	wantViolation(t, r.CheckRuntime(), fmt.Sprintf("coherence: directory: block %#x: cpu 0 holds a S copy unknown to the directory", checkedBlk))
}

func TestCheckCoherenceNotQuiescent(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	if _, ok := r.DCaches[0].Load(r.now, checkedBlk, 0xf); ok {
		t.Fatal("cold load hit")
	}
	r.step() // the request leaves the port for the network
	wantViolation(t, r.CheckCoherence(), "coherence: not quiescent: cache0 not drained, packets in flight")
	r.settle()
	r.check()
}

// TestBankFingerprintSortsEntries holds a bank's fingerprint to block
// order, not the order the directory saw the blocks in: two banks that
// learn the same two blocks in opposite orders encode equal, however
// their maps happen to iterate.
func TestBankFingerprintSortsEntries(t *testing.T) {
	hi, lo := uint32(checkedBlk+0x40), uint32(checkedBlk)
	var enc [2]Enc
	for i, order := range [2][2]uint32{{hi, lo}, {lo, hi}} {
		r := newRig(t, WTI, 1, 1)
		r.load(0, order[0])
		r.load(0, order[1])
		r.settle()
		for range 8 {
			var e Enc
			r.Banks[0].Fingerprint(&e, r.now)
			if enc[i] != nil && !bytes.Equal(e, enc[i]) {
				t.Fatalf("loads of %#x then %#x: the bank encodes two ways", order[0], order[1])
			}
			enc[i] = e
		}
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatalf("the order the directory saw the blocks in changes its encoding:\n%x\n%x", enc[0], enc[1])
	}
}

// TestMsgFingerprintCoversEveryField sets each field of a Msg in turn
// and requires the encoding to change: a field added to Msg and left
// out of Fingerprint fails here instead of merging states that differ.
func TestMsgFingerprintCoversEveryField(t *testing.T) {
	var zero Enc
	(&Msg{}).Fingerprint(&zero)
	typ := reflect.TypeOf(Msg{})
	for i := range typ.NumField() {
		var m Msg
		f := reflect.ValueOf(&m).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(1)
		case reflect.Uint8, reflect.Uint32:
			f.SetUint(1)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]byte{1}))
		default:
			t.Fatalf("Msg.%s: no non-zero value for kind %s", typ.Field(i).Name, f.Kind())
		}
		var e Enc
		m.Fingerprint(&e)
		if bytes.Equal(e, zero) {
			t.Errorf("Msg.%s does not reach the encoding", typ.Field(i).Name)
		}
	}
}
