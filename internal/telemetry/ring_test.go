package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestRingWraparound drives the event ring past its capacity and
// checks the tail window: exactly the newest capacity-many events, in
// emission order, with contiguous sequence numbers.
func TestRingWraparound(t *testing.T) {
	const cap, emitted = 8, 21
	sc := NewScope("wrap", WithRingSize(cap))
	for i := 0; i < emitted; i++ {
		sc.Emit(QueryPhase{Phase: "p", Detail: fmt.Sprintf("%d", i)})
	}
	tail := sc.Tail()
	if len(tail) != cap {
		t.Fatalf("tail length = %d, want ring capacity %d", len(tail), cap)
	}
	for i, ev := range tail {
		wantSeq := uint64(emitted - cap + i + 1)
		if ev.Seq != wantSeq {
			t.Errorf("tail[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		wantDetail := fmt.Sprintf("%d", emitted-cap+i)
		if got := ev.Rec.(QueryPhase).Detail; got != wantDetail {
			t.Errorf("tail[%d] detail = %q, want %q", i, got, wantDetail)
		}
		if i > 0 && ev.At < tail[i-1].At {
			t.Errorf("tail[%d].At = %v before tail[%d].At = %v", i, ev.At, i-1, tail[i-1].At)
		}
	}
	if sc.EventCount() != emitted {
		t.Errorf("EventCount = %d, want %d", sc.EventCount(), emitted)
	}
}

// TestRingTailBeforeWrap checks the partial-window case: fewer events
// than capacity returns exactly the emitted events.
func TestRingTailBeforeWrap(t *testing.T) {
	sc := NewScope("partial", WithRingSize(16))
	for i := 0; i < 5; i++ {
		sc.Emit(Barrier{Node: i})
	}
	tail := sc.Tail()
	if len(tail) != 5 {
		t.Fatalf("tail length = %d, want 5", len(tail))
	}
	for i, ev := range tail {
		if ev.Seq != uint64(i+1) {
			t.Errorf("tail[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestConcurrentEmitWraparound hammers Emit from many goroutines with a
// tiny ring (forcing constant wraparound) while other goroutines
// register instruments — the -race run of this test is the satellite's
// point. Afterwards: no event was lost on the sink path, sequence
// numbers are unique and exactly 1..N, the ring holds capacity-many
// distinct events, and every instrument registration survived.
func TestConcurrentEmitWraparound(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
		ringCap    = 32
	)
	sc := NewScope("conc", WithRingSize(ringCap))
	sink := NewMemSink()
	sc.Attach(sink)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Interleave instrument registration with emission so
				// the sync.Map registries race against the ring.
				sc.Counter(fmt.Sprintf("ctr.%d", g)).Inc()
				sc.Gauge(fmt.Sprintf("g.%d", i%10)).Set(int64(i))
				sc.Emit(BlockSent{From: g, Tuples: i})
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if sc.EventCount() != total {
		t.Fatalf("EventCount = %d, want %d", sc.EventCount(), total)
	}
	evs := sink.Events()
	if len(evs) != total {
		t.Fatalf("sink saw %d events, want %d (lost events)", len(evs), total)
	}
	seen := make(map[uint64]bool, total)
	for _, ev := range evs {
		if ev.Seq < 1 || ev.Seq > total {
			t.Fatalf("seq %d out of range [1,%d]", ev.Seq, total)
		}
		if seen[ev.Seq] {
			t.Fatalf("seq %d assigned twice", ev.Seq)
		}
		seen[ev.Seq] = true
	}

	tail := sc.Tail()
	if len(tail) != ringCap {
		t.Fatalf("tail length = %d, want %d", len(tail), ringCap)
	}
	tailSeen := make(map[uint64]bool, ringCap)
	for _, ev := range tail {
		if ev.Rec == nil {
			t.Fatal("ring returned a zero event (torn write)")
		}
		if tailSeen[ev.Seq] {
			t.Fatalf("ring holds seq %d twice", ev.Seq)
		}
		tailSeen[ev.Seq] = true
	}

	ctrs := sc.CounterSnapshot()
	for g := 0; g < goroutines; g++ {
		name := fmt.Sprintf("ctr.%d", g)
		if ctrs[name] != perG {
			t.Errorf("counter %s = %d, want %d (lost registration or increments)", name, ctrs[name], perG)
		}
	}
	gs := sc.GaugeSnapshot()
	for i := 0; i < 10; i++ {
		if _, ok := gs[fmt.Sprintf("g.%d", i)]; !ok {
			t.Errorf("gauge g.%d lost its registration", i)
		}
	}
}

// TestGaugeSnapshotPeaks checks the satellite's snapshot accessors:
// current and peak values for int and float gauges.
func TestGaugeSnapshotPeaks(t *testing.T) {
	sc := NewScope("snap")
	g := sc.Gauge("workers")
	g.Set(7)
	g.Set(3)
	fg := sc.FloatGauge("util")
	fg.Set(0.9)
	fg.Set(0.2)

	gs := sc.GaugeSnapshot()
	if v := gs["workers"]; v.Cur != 3 || v.Peak != 7 {
		t.Errorf("workers snapshot = %+v, want Cur=3 Peak=7", v)
	}
	fgs := sc.FloatGaugeSnapshot()
	if v := fgs["util"]; v.Cur != 0.2 || v.Peak != 0.9 {
		t.Errorf("util snapshot = %+v, want Cur=0.2 Peak=0.9", v)
	}
}

// TestRingTailStates walks one ring through the three states Tail must
// handle — partly filled, exactly full, wrapped — checking each time
// that it returns the newest min(emitted, capacity) events, oldest
// first, for explicit sizes (1 and 8) and the default capacity.
func TestRingTailStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  int
		opts []Option
	}{
		{"size1", 1, []Option{WithRingSize(1)}},
		{"size8", 8, []Option{WithRingSize(8)}},
		{"default", defaultRingSize, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScope("states", tc.opts...)
			if tail := sc.Tail(); len(tail) != 0 {
				t.Fatalf("fresh scope: tail length = %d, want 0", len(tail))
			}
			emitted := 0
			for _, upTo := range []int{tc.cap / 2, tc.cap, tc.cap + 1, 2*tc.cap + 3} {
				for ; emitted < upTo; emitted++ {
					sc.Emit(Barrier{Node: emitted})
				}
				tail := sc.Tail()
				want := min(emitted, tc.cap)
				if len(tail) != want {
					t.Fatalf("after %d events: tail length = %d, want %d", emitted, len(tail), want)
				}
				for i, ev := range tail {
					wantSeq := uint64(emitted - want + i + 1)
					if ev.Seq != wantSeq || ev.Rec.(Barrier).Node != int(wantSeq)-1 {
						t.Fatalf("after %d events: tail[%d] = seq %d node %d, want seq %d",
							emitted, i, ev.Seq, ev.Rec.(Barrier).Node, wantSeq)
					}
				}
			}
		})
	}
}

// TestRingDisabled checks WithRingSize(0): no tail is kept, but the
// sequence counter and the sinks still see every event.
func TestRingDisabled(t *testing.T) {
	sc := NewScope("off", WithRingSize(0))
	sink := NewMemSink()
	sc.Attach(sink)
	for i := 0; i < 10; i++ {
		sc.Emit(Barrier{Node: i})
	}
	if tail := sc.Tail(); tail != nil {
		t.Fatalf("disabled ring: tail = %d events, want nil", len(tail))
	}
	if n := len(sink.Events()); n != 10 || sc.EventCount() != 10 {
		t.Fatalf("sink saw %d events, EventCount = %d; want 10 and 10", n, sc.EventCount())
	}
}

// TestScopeRingAllocatesOnDemand bounds what a short-lived query scope
// costs: creating a scope and emitting 16 events must allocate under
// 4 KB. A ring allocated at its full default capacity up front costs
// about 48 KB here.
func TestScopeRingAllocatesOnDemand(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := NewScope("q")
			for j := 0; j < 16; j++ {
				sc.Emit(Barrier{Node: j})
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4096 {
		t.Fatalf("NewScope + 16 Emits allocated %d B/op, want < 4096", got)
	}
}
