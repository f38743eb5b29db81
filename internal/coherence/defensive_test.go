package coherence

import "testing"

// The protocol engines treat impossible message sequences as fatal
// model bugs rather than silently mis-stating coherence. These tests
// pin the defensive panics.

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestStrayInvAckPanics(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	expectPanic(t, "stray inv ack", func() {
		r.Banks[0].HandleMsg(&Msg{Kind: RspInvAck, Src: 0, Addr: rigBase}, 0)
	})
}

func TestStrayFetchResponsePanics(t *testing.T) {
	r := newRig(t, WBMESI, 1, 1)
	expectPanic(t, "stray fetch response", func() {
		r.Banks[0].HandleMsg(&Msg{Kind: RspFetch, Src: 0, Addr: rigBase}, 0)
	})
}

func TestStrayC2CDonePanics(t *testing.T) {
	r := newRig(t, WBMESI, 1, 1)
	expectPanic(t, "stray c2c done", func() {
		r.Banks[0].HandleMsg(&Msg{Kind: RspC2CDone, Src: 0, Addr: rigBase}, 0)
	})
}

func TestStrayWriteAckAtCachePanics(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	expectPanic(t, "stray write ack", func() {
		r.DCaches[0].HandleMsg(&Msg{Kind: RspWriteAck, Addr: rigBase}, 0)
	})
}

func TestUnexpectedDataAtCachePanics(t *testing.T) {
	for _, proto := range []Protocol{WTI, WBMESI} {
		r := newRig(t, proto, 1, 1)
		expectPanic(t, "unexpected data response", func() {
			r.DCaches[0].HandleMsg(&Msg{Kind: RspData, Addr: rigBase}, 0)
		})
	}
}

func TestWriteBackUnderWTIPanics(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	expectPanic(t, "unhandled message kind", func() {
		r.Banks[0].HandleMsg(&Msg{Kind: ReqUpgrade, Src: 0, Addr: rigBase}, 0)
		// WTI directories never see upgrades; the entry path promotes
		// it to ReadExcl which is MESI-only bookkeeping. Force the
		// truly-invalid kind instead:
		r.Banks[0].HandleMsg(&Msg{Kind: MsgInvalid, Src: 0, Addr: rigBase}, 4)
	})
}

func TestMOESIWithoutC2CPanics(t *testing.T) {
	p := DefaultParams(1)
	expectPanic(t, "MOESI without cache-to-cache", func() {
		newWriteBackCache(MOESI, 0, p, nil)
	})
}

func TestCacheArrayBadGeometryPanics(t *testing.T) {
	expectPanic(t, "indivisible ways", func() {
		newCacheArray(4096, 3)
	})
}

// TestParseProtocol pins the one protocol-name parser the CLIs share:
// the four names of their -protocol help, and nothing else.
func TestParseProtocol(t *testing.T) {
	for _, c := range []struct {
		name string
		want Protocol
	}{{"wti", WTI}, {"wtu", WTU}, {"wb", WBMESI}, {"moesi", MOESI}} {
		if got, err := ParseProtocol(c.name); err != nil || got != c.want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, name := range []string{"", "WTI", "mesi", "wbmesi", "both"} {
		if p, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) = %v, want an error", name, p)
		}
	}
}
