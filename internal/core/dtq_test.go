package core

import (
	"testing"

	"blackjack/internal/isa"
)

func TestDTQAllocateAndHeadPacket(t *testing.T) {
	q := NewDTQ(16)
	if q.Free() != 16 {
		t.Fatalf("Free = %d, want 16", q.Free())
	}
	// Packet 0: seqs 1,2; packet 1: seq 3.
	for _, e := range []*Entry{
		{Seq: 1, PacketID: 0},
		{Seq: 2, PacketID: 0},
		{Seq: 3, PacketID: 1},
	} {
		if !q.Allocate(e) {
			t.Fatalf("Allocate(%d) failed", e.Seq)
		}
	}
	if pkt := q.HeadPacket(); pkt != nil {
		t.Errorf("HeadPacket before commit = %v, want nil", pkt)
	}
	q.MarkCommitted(1, 0, 0, 0, 0, false)
	if pkt := q.HeadPacket(); pkt != nil {
		t.Error("HeadPacket with partially committed packet should be nil")
	}
	q.MarkCommitted(2, 1, 0, 0, 0, false)
	pkt := q.HeadPacket()
	if len(pkt) != 2 || pkt[0].Seq != 1 || pkt[1].Seq != 2 {
		t.Fatalf("HeadPacket = %v, want seqs [1 2]", pkt)
	}
	q.PopPacket(len(pkt))
	if q.Len() != 1 {
		t.Errorf("Len after pop = %d, want 1", q.Len())
	}
	// Remaining packet 1 becomes head once committed.
	q.MarkCommitted(3, 2, 0, 0, 0, false)
	pkt = q.HeadPacket()
	if len(pkt) != 1 || pkt[0].Seq != 3 {
		t.Errorf("HeadPacket = %v, want seq [3]", pkt)
	}
}

func TestDTQCommitRecordsProgramOrderInfo(t *testing.T) {
	q := NewDTQ(4)
	q.Allocate(&Entry{Seq: 5, PacketID: 0})
	if !q.MarkCommitted(5, 10, 3, 2, 1, true) {
		t.Fatal("MarkCommitted failed")
	}
	e := q.HeadPacket()[0]
	if e.VirtAL != 10 || e.VirtLSQ != 3 || e.LoadSeq != 2 || e.StoreSeq != 1 || !e.Halt {
		t.Errorf("entry = %+v", e)
	}
	if q.MarkCommitted(99, 0, 0, 0, 0, false) {
		t.Error("MarkCommitted for unknown seq succeeded")
	}
}

func TestDTQSquashYounger(t *testing.T) {
	q := NewDTQ(8)
	for seq := uint64(1); seq <= 5; seq++ {
		q.Allocate(&Entry{Seq: seq, PacketID: seq / 2})
	}
	if n := q.SquashYounger(3); n != 2 {
		t.Errorf("squashed %d, want 2", n)
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	// Squashed entries must also leave the seq table.
	if q.MarkCommitted(5, 0, 0, 0, 0, false) {
		t.Error("squashed entry still committable")
	}
	if !q.MarkCommitted(3, 0, 0, 0, 0, false) {
		t.Error("surviving entry not committable")
	}
}

// Seqs that share a lookup slot (here 1 and 5 in a 4-slot table) must both
// stay committable: the later allocation takes the slot, the earlier entry
// is found by the ring scan, and popping either leaves the other findable.
func TestDTQSeqCollisionFallsBackToScan(t *testing.T) {
	q := NewDTQ(4)
	q.Allocate(&Entry{Seq: 1, PacketID: 0})
	q.Allocate(&Entry{Seq: 5, PacketID: 1})
	if !q.MarkCommitted(1, 0, 0, 0, 0, false) {
		t.Fatal("MarkCommitted(1) failed after seq 5 took its slot")
	}
	q.PopPacket(len(q.HeadPacket()))
	if !q.MarkCommitted(5, 1, 0, 0, 0, false) {
		t.Fatal("MarkCommitted(5) failed after seq 1 was popped")
	}
	if q.MarkCommitted(9, 0, 0, 0, 0, false) {
		t.Error("MarkCommitted succeeded for a seq never allocated")
	}
}

func TestDTQFullRejectsAllocate(t *testing.T) {
	q := NewDTQ(2)
	q.Allocate(&Entry{Seq: 1})
	q.Allocate(&Entry{Seq: 2})
	if q.Allocate(&Entry{Seq: 3}) {
		t.Error("Allocate into full DTQ succeeded")
	}
	if q.Free() != 0 {
		t.Errorf("Free = %d, want 0", q.Free())
	}
}

func TestDTQPacketBoundaryRespectedAfterSquash(t *testing.T) {
	// A packet that loses members to a squash still forms a (smaller) head
	// packet from its survivors.
	q := NewDTQ(8)
	q.Allocate(&Entry{Seq: 1, PacketID: 7})
	q.Allocate(&Entry{Seq: 4, PacketID: 7})
	q.Allocate(&Entry{Seq: 2, PacketID: 8})
	q.SquashYounger(2) // removes seq 4
	q.MarkCommitted(1, 0, 0, 0, 0, false)
	q.MarkCommitted(2, 1, 0, 0, 0, false)
	pkt := q.HeadPacket()
	if len(pkt) != 1 || pkt[0].Seq != 1 {
		t.Errorf("HeadPacket = %v, want surviving seq [1]", pkt)
	}
	_ = isa.Inst{}
}

// Cycling many packets through a small DTQ exercises the ring's wraparound
// paths: allocate/pop repeatedly past the capacity boundary and verify packet
// grouping, seq-table bookkeeping, and Free accounting all stay consistent.
func TestDTQWraparound(t *testing.T) {
	const cap = 5 // deliberately not a multiple of the packet size
	q := NewDTQ(cap)
	seq := uint64(0)
	for pkt := uint64(0); pkt < 20; pkt++ {
		n := int(pkt%3) + 1 // packet sizes 1..3 so boundaries drift across the ring
		for i := 0; i < n; i++ {
			if !q.Allocate(&Entry{Seq: seq, PacketID: pkt, Class: isa.UnitIntALU}) {
				t.Fatalf("packet %d: Allocate(%d) failed with Free=%d", pkt, seq, q.Free())
			}
			seq++
		}
		if got := q.Free(); got != cap-n {
			t.Fatalf("packet %d: Free = %d, want %d", pkt, got, cap-n)
		}
		if q.HeadPacket() != nil {
			t.Fatalf("packet %d: HeadPacket non-nil before commit", pkt)
		}
		for i := 0; i < n; i++ {
			if !q.MarkCommitted(seq-uint64(n)+uint64(i), seq, 0, 0, 0, false) {
				t.Fatalf("packet %d: MarkCommitted(%d) failed", pkt, seq-uint64(n)+uint64(i))
			}
		}
		head := q.HeadPacket()
		if len(head) != n {
			t.Fatalf("packet %d: HeadPacket len = %d, want %d", pkt, len(head), n)
		}
		for i, e := range head {
			if e.PacketID != pkt || e.Seq != seq-uint64(n)+uint64(i) {
				t.Fatalf("packet %d slot %d: got seq %d packet %d", pkt, i, e.Seq, e.PacketID)
			}
		}
		q.PopPacket(n)
		if q.Len() != 0 || q.Free() != cap {
			t.Fatalf("packet %d: Len=%d Free=%d after pop, want 0/%d", pkt, q.Len(), q.Free(), cap)
		}
	}
	for i, e := range q.bySeq {
		if e != nil {
			t.Errorf("seq table slot %d retains seq %d after full drain", i, e.Seq)
		}
	}
}

// Squashing across the wrap boundary must drop exactly the younger entries
// and leave the surviving prefix intact and shuffle-ready.
func TestDTQSquashAcrossWraparound(t *testing.T) {
	q := NewDTQ(4)
	// Fill and drain once so the ring's head is mid-array.
	for s := uint64(0); s < 3; s++ {
		q.Allocate(&Entry{Seq: s, PacketID: 0})
	}
	for s := uint64(0); s < 3; s++ {
		q.MarkCommitted(s, s, 0, 0, 0, false)
	}
	q.PopPacket(3)
	// Now allocate a run that physically wraps.
	for s := uint64(10); s < 14; s++ {
		q.Allocate(&Entry{Seq: s, PacketID: uint64(s)}) // one packet per entry
	}
	if n := q.SquashYounger(11); n != 2 {
		t.Fatalf("SquashYounger dropped %d, want 2", n)
	}
	if q.Len() != 2 || q.Free() != 2 {
		t.Fatalf("Len=%d Free=%d after squash, want 2/2", q.Len(), q.Free())
	}
	q.MarkCommitted(10, 0, 0, 0, 0, false)
	head := q.HeadPacket()
	if len(head) != 1 || head[0].Seq != 10 {
		t.Fatalf("HeadPacket = %v, want surviving seq 10", head)
	}
	// Squashed seqs must be gone from the seq table: re-marking them fails.
	if q.MarkCommitted(12, 0, 0, 0, 0, false) {
		t.Error("MarkCommitted succeeded for squashed seq 12")
	}
}
