package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPublishBatchContiguousSeq pins the batch contract: one sequence
// reservation, events stamped in order with no gaps, interleaved cleanly
// with single Publish calls.
func TestPublishBatchContiguousSeq(t *testing.T) {
	b := NewBus()
	var got []uint64
	b.Subscribe(func(ev Event) { got = append(got, ev.Seq) })

	b.Publish(Event{Kind: KindStep})
	batch := []Event{{Kind: KindDeliver}, {Kind: KindErase}, {Kind: KindFire}}
	b.PublishBatch(batch)
	b.Publish(Event{Kind: KindStep})

	want := []uint64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("subscriber saw %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seq stream %v, want %v", got, want)
		}
	}
	// The caller's slice is stamped in place and reusable afterwards.
	if batch[0].Seq != 2 || batch[2].Seq != 4 {
		t.Fatalf("batch not stamped in place: %+v", batch)
	}
}

// TestPublishBatchInactive pins the zero-subscriber fast path: no
// sequence numbers are consumed, so recorded streams stay gapless.
func TestPublishBatchInactive(t *testing.T) {
	b := NewBus()
	b.PublishBatch([]Event{{Kind: KindStep}, {Kind: KindFire}})
	var nilBus *Bus
	nilBus.PublishBatch([]Event{{Kind: KindStep}}) // nil bus: no-op, no panic
	b.PublishBatch(nil)

	var first uint64
	b.Subscribe(func(ev Event) { first = ev.Seq })
	b.Publish(Event{Kind: KindStep})
	if first != 1 {
		t.Fatalf("inactive batches consumed sequence numbers: first live seq %d", first)
	}
}

// TestPublishBatchConcurrent holds batches atomic under concurrency: each
// batch occupies a contiguous seq range even when many goroutines publish
// at once.
func TestPublishBatchConcurrent(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	seen := make(map[uint64]int) // seq -> publisher id
	b.Subscribe(func(ev Event) {
		mu.Lock()
		seen[ev.Seq] = ev.Count
		mu.Unlock()
	})
	const publishers, batchLen = 8, 5
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			evs := make([]Event, batchLen)
			for i := range evs {
				evs[i] = Event{Kind: KindStep, Count: p}
			}
			b.PublishBatch(evs)
		}(p)
	}
	wg.Wait()
	if len(seen) != publishers*batchLen {
		t.Fatalf("%d distinct seqs, want %d", len(seen), publishers*batchLen)
	}
	// Contiguity: each publisher's batch occupies seqs [base, base+len).
	byPublisher := make(map[int][]uint64)
	for seq, p := range seen {
		byPublisher[p] = append(byPublisher[p], seq)
	}
	for p, seqs := range byPublisher {
		lo, hi := seqs[0], seqs[0]
		for _, s := range seqs {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi-lo != batchLen-1 {
			t.Fatalf("publisher %d batch spans [%d,%d], not contiguous", p, lo, hi)
		}
	}
}

// TestPublishBatchConcurrentSubscribeUnsubscribe churns the subscriber
// set while batches are in flight: PublishBatch loads the subscriber list
// once per call, so a subscriber sees a batch either whole (if it was
// attached at the load) or not at all — never a torn fragment from the
// copy-on-write swap. Run under -race, this also exercises the
// Subscribe/unsubscribe store against concurrent publishes.
func TestPublishBatchConcurrentSubscribeUnsubscribe(t *testing.T) {
	b := NewBus()
	const publishers, batches, batchLen, churners = 4, 50, 7, 4

	// One permanent subscriber keeps the bus active throughout, counting
	// what a stable observer sees.
	var permanent atomic.Int64
	b.Subscribe(func(Event) { permanent.Add(1) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners subscribe and unsubscribe continuously. Each transient
	// subscriber gets its own event counter. unsub does not wait for a
	// publisher that already loaded the old subscriber snapshot, so a
	// batch may still be landing on a counter after unsub returns; the
	// counters are therefore checked only once every publisher is done.
	var (
		countersMu sync.Mutex
		counters   []*atomic.Int64
	)
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := new(atomic.Int64)
				countersMu.Lock()
				counters = append(counters, n)
				countersMu.Unlock()
				unsub := b.Subscribe(func(Event) { n.Add(1) })
				unsub()
				unsub() // idempotent
			}
		}()
	}
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			evs := make([]Event, batchLen)
			for i := 0; i < batches; i++ {
				for j := range evs {
					evs[j] = Event{Kind: KindStep}
				}
				b.PublishBatch(evs)
			}
		}()
	}
	pubWG.Wait()
	close(stop)
	wg.Wait()
	// Every PublishBatch has returned, so no delivery is in flight: since
	// PublishBatch snapshots the subscriber list per call, each transient
	// count must be a multiple of the batch length (plus single
	// publishes, of which there are none here).
	for _, n := range counters {
		if got := n.Load(); got%batchLen != 0 {
			t.Fatalf("transient subscriber saw %d events, not a multiple of batch length %d (torn batch)", got, batchLen)
		}
	}
	if got := permanent.Load(); got != publishers*batches*batchLen {
		t.Fatalf("permanent subscriber saw %d events, want %d", got, publishers*batches*batchLen)
	}
	// After every transient unsubscribed, the bus must still deliver.
	before := permanent.Load()
	b.Publish(Event{Kind: KindStep})
	if permanent.Load() != before+1 {
		t.Fatal("permanent subscriber lost after unsubscribe churn")
	}
}

// TestUnsubscribeRestoresFastPath pins that removing the last subscriber
// returns the bus to the zero-cost inactive state.
func TestUnsubscribeRestoresFastPath(t *testing.T) {
	b := NewBus()
	unsub := b.Subscribe(func(Event) {})
	if !b.Active() {
		t.Fatal("bus inactive with a subscriber")
	}
	unsub()
	if b.Active() {
		t.Fatal("bus active after the last unsubscribe")
	}
	// Inactive publishes must not consume sequence numbers (gapless).
	b.Publish(Event{Kind: KindStep})
	var first uint64
	b.Subscribe(func(ev Event) { first = ev.Seq })
	b.Publish(Event{Kind: KindStep})
	if first != 1 {
		t.Fatalf("first live seq %d after inactive publish, want 1", first)
	}
}
