package msgpass

import (
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// nextFrame pops the next frame queued on the unstarted network's link
// from → to, failing the test if the link is empty or the frame is not
// of the wanted kind.
func nextFrame(t *testing.T, nw *Network, from, to graph.ProcessID, want transport.FrameKind) transport.Frame {
	t.Helper()
	select {
	case f := <-nw.tr.Link(from, to).Recv():
		if f.Kind != want {
			t.Fatalf("link %d→%d carried frame kind %v, want %v", from, to, f.Kind, want)
		}
		return f
	default:
		t.Fatalf("link %d→%d is empty, want a frame of kind %v", from, to, want)
		return transport.Frame{}
	}
}

// TestCancelsHappenUnderCorruptRouting drives the retarget path of the hop
// handshake by hand on an unstarted 3-node line, frame by frame, so it
// runs the same way every time. Node 1 holds a message for node 2 in bufE
// while its corrupted table routes it away, through node 0. The offer to
// node 0 is delayed on the wire; the distance vector from node 2 then
// repairs the table, and the outstanding offer must be withdrawn
// (KindCancel) and confirmed (KindCancelAck) before it is re-offered,
// under a fresh sequence, to node 2. When the delayed offer finally lands
// at node 0 it must be refused, and the message is delivered exactly once.
func TestCancelsHappenUnderCorruptRouting(t *testing.T) {
	nw := New(graph.Line(3), Options{Seed: 1})
	t.Cleanup(func() { nw.tr.Close() })
	n0, n1, n2 := nw.nodes[0], nw.nodes[1], nw.nodes[2]
	const dest = 2

	// Corrupted routing at node 1: destination 2 is routed via node 0.
	n1.parent[dest], n1.dist[dest] = 0, 2
	msg := Message{Payload: "retarget", UID: 7, Src: 1, Dest: dest, Valid: true}
	n1.dests[dest].bufE, n1.dests[dest].hasE = msg, true
	n1.tg.bufE.Add(1)

	n1.driveTransfer(dest)
	late := nextFrame(t, nw, 1, 0, transport.KindOffer) // held back: delayed on the wire
	first := late.Offer.Seq

	// Node 2's distance vector repairs the table.
	n1.handleDV(2, []int{2, 1, 0})
	if n1.parent[dest] != 2 {
		t.Fatalf("DV did not retarget node 1: parent = %d, want 2", n1.parent[dest])
	}

	// The retransmit interval elapses: the outstanding offer is withdrawn
	// from its old target instead of being re-offered anywhere.
	n1.tickCount += offerRetransmitTicks
	n1.driveTransfer(dest)
	cancel := nextFrame(t, nw, 1, 0, transport.KindCancel)
	if cancel.Ack.Seq != first {
		t.Fatalf("cancel for seq %d, want the outstanding %d", cancel.Ack.Seq, first)
	}
	if got := nw.Stats().CancelsSent; got != 1 {
		t.Fatalf("CancelsSent = %d, want 1", got)
	}
	if len(nw.tr.Link(1, 2).Recv()) != 0 {
		t.Fatal("node 1 offered to its new parent before the old offer was cancelled")
	}

	// Node 0 never accepted the sequence, so it kills it and confirms.
	n0.handle(cancel)
	ack := nextFrame(t, nw, 0, 1, transport.KindCancelAck)
	if ack.Ack.Seq != first || n0.dests[dest].killed[1] != first {
		t.Fatalf("cancelAck seq %d, kill watermark %d; want both %d", ack.Ack.Seq, n0.dests[dest].killed[1], first)
	}

	// The delayed offer lands after the kill: refused again, never stored.
	n0.handle(late)
	dupAck := nextFrame(t, nw, 0, 1, transport.KindCancelAck)
	if n0.dests[dest].hasR {
		t.Fatal("node 0 stored a cancelled sequence")
	}

	// The cancelAck frees node 1 to re-offer to its new parent at once,
	// under a fresh sequence; the duplicate cancelAck is stale.
	n1.handle(ack)
	reoffer := nextFrame(t, nw, 1, 2, transport.KindOffer)
	if reoffer.Offer.Seq <= first {
		t.Fatalf("re-offer reused seq %d (cancelled %d)", reoffer.Offer.Seq, first)
	}
	n1.handle(dupAck)
	if n1.dests[dest].offerSeq != reoffer.Offer.Seq || n1.dests[dest].offerTarget != 2 {
		t.Fatalf("stale cancelAck disturbed the re-offer: seq %d target %d",
			n1.dests[dest].offerSeq, n1.dests[dest].offerTarget)
	}

	// Node 2 accepts, node 1 erases, node 2 moves (R2) and consumes (R6).
	n2.handle(reoffer)
	n1.handle(nextFrame(t, nw, 2, 1, transport.KindAccept))
	if n1.dests[dest].hasE {
		t.Fatal("node 1 kept the message after the accept")
	}
	n2.localMoves()
	n2.localMoves()
	ds := nw.Deliveries()
	if len(ds) != 1 || ds[0].Msg.UID != msg.UID || ds[0].At != dest {
		t.Fatalf("deliveries = %+v, want exactly one of uid %d at %d", ds, msg.UID, dest)
	}
	for _, l := range []transport.Link{nw.tr.Link(1, 0), nw.tr.Link(0, 1), nw.tr.Link(1, 2)} {
		if n := len(l.Recv()); n != 0 {
			t.Fatalf("%d unexpected frames left on a link", n)
		}
	}
}
