package channel

import (
	"fmt"
	"testing"

	"seqtx/internal/msg"
)

func TestKindString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		k    Kind
		want string
	}{
		{KindDup, "dup"},
		{KindDel, "del"},
		{KindReorder, "reorder"},
		{KindFIFO, "fifo"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestNewKnownKinds(t *testing.T) {
	t.Parallel()
	for _, k := range []Kind{KindDup, KindDel, KindReorder, KindFIFO} {
		h, err := New(k)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if h.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, h.Kind())
		}
	}
	if _, err := New(Kind(0)); err == nil {
		t.Error("New(0) succeeded")
	}
}

func TestDupSemantics(t *testing.T) {
	t.Parallel()
	d := NewDup()
	if d.CanDeliver("a") {
		t.Error("empty dup can deliver")
	}
	d.Send("a")
	d.Send("a") // duplicate send collapses into the set
	d.Send("b")
	if got := d.SentTotal(); got != 3 {
		t.Errorf("SentTotal() = %d, want 3", got)
	}
	// Delivery never exhausts: deliver "a" many times.
	for i := 0; i < 5; i++ {
		if err := d.Deliver("a"); err != nil {
			t.Fatalf("Deliver #%d: %v", i, err)
		}
	}
	if !d.CanDeliver("a") || !d.CanDeliver("b") {
		t.Error("dup lost deliverability after deliveries")
	}
	dv := d.Deliverable()
	if dv.Get("a") != 1 || dv.Get("b") != 1 {
		t.Errorf("Deliverable() = %v, want 0/1 flags", dv)
	}
	if err := d.Deliver("c"); err == nil {
		t.Error("delivered a never-sent message")
	}
	if d.CanDrop("a") {
		t.Error("dup can drop")
	}
	if err := d.Drop("a"); err == nil {
		t.Error("dropped on a dup channel")
	}
}

func TestDupCloneAndKey(t *testing.T) {
	t.Parallel()
	d := NewDup()
	d.Send("b")
	d.Send("a")
	c := d.Clone()
	c.Send("z")
	if d.CanDeliver("z") {
		t.Error("Clone shares state")
	}
	d2 := NewDup()
	d2.Send("a")
	d2.Send("b")
	if d.Key() != d2.Key() {
		t.Errorf("keys differ for same sent-set: %q vs %q", d.Key(), d2.Key())
	}
}

func TestDelSemantics(t *testing.T) {
	t.Parallel()
	d := NewDel()
	d.Send("a")
	d.Send("a")
	if got := d.Deliverable().Get("a"); got != 2 {
		t.Errorf("two copies in flight, Deliverable = %d", got)
	}
	if err := d.Deliver("a"); err != nil {
		t.Fatal(err)
	}
	if got := d.Deliverable().Get("a"); got != 1 {
		t.Errorf("after one delivery, in flight = %d, want 1", got)
	}
	if err := d.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if d.CanDeliver("a") {
		t.Error("copy deliverable after deliver+drop of both copies")
	}
	if err := d.Deliver("a"); err == nil {
		t.Error("delivered with zero in flight (creation!)")
	}
	if d.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", d.Dropped())
	}
	if d.Kind() != KindDel {
		t.Errorf("Kind() = %v", d.Kind())
	}
}

func TestReorderForbidsDrop(t *testing.T) {
	t.Parallel()
	r := NewReorder()
	r.Send("a")
	if r.CanDrop("a") {
		t.Error("reorder can drop")
	}
	if err := r.Drop("a"); err == nil {
		t.Error("dropped on a reorder channel")
	}
	if r.Kind() != KindReorder {
		t.Errorf("Kind() = %v", r.Kind())
	}
	if err := r.Deliver("a"); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", r.Pending())
	}
}

func TestDelCloneIndependent(t *testing.T) {
	t.Parallel()
	d := NewDel()
	d.Send("a")
	c := d.Clone().(*Del)
	if err := c.Deliver("a"); err != nil {
		t.Fatal(err)
	}
	if !d.CanDeliver("a") {
		t.Error("Clone shares in-flight multiset")
	}
	if d.Key() == c.Key() {
		t.Error("different states share key")
	}
}

// TestCopyFrom copies a half of every kind onto a half of its type, a
// fresh one and one whose scalars differ and whose slice other writes
// have lengthened (and, for a FIFO, whose head was consumed): the copy
// must equal its source, neither's later writes may show in the other,
// and a copy into storage that is large enough allocates nothing. Not
// parallel: AllocsPerRun counts every goroutine's allocations.
func TestCopyFrom(t *testing.T) {
	for _, kind := range fuzzKinds {
		src, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []msg.Msg{"a", "b", "a", "c"} {
			src.Send(m)
		}
		if err := src.Deliver("a"); err != nil {
			t.Fatal(err)
		}
		fresh, _ := New(kind)
		for _, dst := range []Half{fresh, sibling(kind)} {
			before := src.Key()
			dst.CopyFrom(src)
			if err := sameHalf(dst, src); err != nil {
				t.Errorf("%s: CopyFrom: %v", kind, err)
				continue
			}
			scribble(dst)
			if src.Key() != before {
				t.Errorf("%s: writing a copy changed its source to %q", kind, src.Key())
			}
			other := src.Clone()
			dst.CopyFrom(other)
			scribble(other)
			if dst.Key() != before {
				t.Errorf("%s: writing a source changed its copy to %q", kind, dst.Key())
			}
		}
		dst := sibling(kind)
		if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(src) }); allocs != 0 {
			t.Errorf("%s: CopyFrom into a longer half allocates %.0f objects, want 0", kind, allocs)
		}
	}
}

// sibling returns a half of kind's concrete type whose scalars differ
// from New(kind)'s and whose slice holds more than a short run leaves,
// after a delivery (a FIFO's consumes its head): a CopyFrom onto it must
// overwrite every field.
func sibling(kind Kind) Half {
	var h Half
	switch kind {
	case KindDup:
		h = NewDupDel()
	case KindDupDel:
		h = NewDup()
	case KindDel:
		h = NewReorder()
	case KindReorder:
		h = NewDel()
	case KindFIFO:
		h = NewFIFO(false, false)
	case KindBounded:
		h = NewBounded(7)
	}
	for _, m := range []msg.Msg{"e", "f", "g", "h", "e", "i", "j"} {
		h.Send(m)
	}
	_ = h.Deliver("e")
	return h
}

// sameHalf reports how got differs from want in anything a caller can
// observe: kind, keys, send total, dlvrble vector, and which of a few
// messages could be delivered or dropped (and, for FIFO halves, the
// duplication permission, which neither key shows).
func sameHalf(got, want Half) error {
	switch {
	case got.Kind() != want.Kind():
		return fmt.Errorf("kind %s, want %s", got.Kind(), want.Kind())
	case got.Key() != want.Key():
		return fmt.Errorf("key %q, want %q", got.Key(), want.Key())
	case string(got.EncodeKey(nil)) != string(want.EncodeKey(nil)):
		return fmt.Errorf("encoded key %x, want %x", got.EncodeKey(nil), want.EncodeKey(nil))
	case got.SentTotal() != want.SentTotal():
		return fmt.Errorf("sent total %d, want %d", got.SentTotal(), want.SentTotal())
	case !got.Deliverable().Equal(want.Deliverable()):
		return fmt.Errorf("deliverable %v, want %v", got.Deliverable(), want.Deliverable())
	}
	for _, m := range []msg.Msg{"a", "b", "c", "d", "e", "zz"} {
		if got.CanDeliver(m) != want.CanDeliver(m) || got.CanDrop(m) != want.CanDrop(m) {
			return fmt.Errorf("%q: can deliver %v, drop %v; want %v, %v",
				m, got.CanDeliver(m), got.CanDrop(m), want.CanDeliver(m), want.CanDrop(m))
		}
	}
	if f, ok := want.(*FIFO); ok && got.(*FIFO).AllowsDup() != f.AllowsDup() {
		return fmt.Errorf("duplication %v, want %v", got.(*FIFO).AllowsDup(), f.AllowsDup())
	}
	return nil
}

func TestFIFOOrdering(t *testing.T) {
	t.Parallel()
	f := NewFIFO(true, true)
	f.Send("a")
	f.Send("b")
	if f.CanDeliver("b") {
		t.Error("non-head deliverable")
	}
	if err := f.Deliver("b"); err == nil {
		t.Error("delivered out of order")
	}
	if err := f.Deliver("a"); err != nil {
		t.Fatal(err)
	}
	if !f.CanDeliver("b") {
		t.Error("head not deliverable after dequeue")
	}
	if f.Len() != 1 {
		t.Errorf("Len() = %d, want 1", f.Len())
	}
}

func TestFIFODuplication(t *testing.T) {
	t.Parallel()
	f := NewFIFO(false, true)
	f.Send("a")
	if err := f.DeliverKeep("a"); err != nil {
		t.Fatal(err)
	}
	if !f.CanDeliver("a") {
		t.Error("DeliverKeep consumed the head")
	}
	if err := f.Deliver("a"); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Errorf("Len() = %d, want 0", f.Len())
	}
	noDup := NewFIFO(true, false)
	noDup.Send("a")
	if err := noDup.DeliverKeep("a"); err == nil {
		t.Error("DeliverKeep succeeded with duplication disabled")
	}
}

func TestFIFOLoss(t *testing.T) {
	t.Parallel()
	f := NewFIFO(true, false)
	f.Send("a")
	f.Send("b")
	if err := f.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if !f.CanDeliver("b") {
		t.Error("head after drop is not b")
	}
	if f.Dropped() != 1 {
		t.Errorf("Dropped() = %d", f.Dropped())
	}
	noLoss := NewFIFO(false, true)
	noLoss.Send("x")
	if err := noLoss.Drop("x"); err == nil {
		t.Error("Drop succeeded with loss disabled")
	}
	if noLoss.CanDrop("x") {
		t.Error("CanDrop true with loss disabled")
	}
}

func TestFIFOCloneIndependent(t *testing.T) {
	t.Parallel()
	f := NewFIFO(true, true)
	f.Send("a")
	c := f.Clone().(*FIFO)
	c.Send("b")
	if f.Len() != 1 || c.Len() != 2 {
		t.Errorf("lens = %d, %d; want 1, 2", f.Len(), c.Len())
	}
	if f.Key() == c.Key() {
		t.Error("different queues share key")
	}
}

func TestLinkAlphabetEnforcement(t *testing.T) {
	t.Parallel()
	l, err := NewLinkOfKind(KindDup)
	if err != nil {
		t.Fatal(err)
	}
	l.EnforceAlphabets(msg.MustNewAlphabet("a", "b"), msg.MustNewAlphabet("ack"))
	if err := l.Send(SToR, "a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(SToR, "z"); err == nil {
		t.Error("sender escaped M^S")
	}
	if err := l.Send(RToS, "ack"); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(RToS, "a"); err == nil {
		t.Error("receiver escaped M^R")
	}
	if size, finite := l.SenderAlphabetSize(); !finite || size != 2 {
		t.Errorf("SenderAlphabetSize() = %d,%v; want 2,true", size, finite)
	}
}

func TestLinkUnboundedAlphabet(t *testing.T) {
	t.Parallel()
	l, err := NewLinkOfKind(KindDel)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(SToR, "seq:123456"); err != nil {
		t.Fatal(err)
	}
	if _, finite := l.SenderAlphabetSize(); finite {
		t.Error("unenforced link reports finite alphabet")
	}
}

func TestLinkCloneAndKey(t *testing.T) {
	t.Parallel()
	l, err := NewLinkOfKind(KindDel)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(SToR, "a"); err != nil {
		t.Fatal(err)
	}
	c := l.Clone()
	if err := c.Send(RToS, "k"); err != nil {
		t.Fatal(err)
	}
	if l.Half(RToS).CanDeliver("k") {
		t.Error("clone shares halves")
	}
	if l.Key() == c.Key() {
		t.Error("different link states share key")
	}
	if err := l.Send(Dir(9), "a"); err == nil {
		t.Error("bad direction accepted")
	}
	if got := SToR.String(); got != "S→R" {
		t.Errorf("SToR.String() = %q", got)
	}
	if got := RToS.String(); got != "R→S" {
		t.Errorf("RToS.String() = %q", got)
	}
	if got := Dir(9).String(); got != "Dir(9)" {
		t.Errorf("Dir(9).String() = %q", got)
	}
}

func TestDelNoCreationProperty(t *testing.T) {
	t.Parallel()
	// Invariant: deliveries+drops never exceed sends per message.
	d := NewDel()
	sent := map[msg.Msg]int{}
	out := map[msg.Msg]int{}
	ops := []struct {
		op string
		m  msg.Msg
	}{
		{"send", "a"}, {"send", "b"}, {"deliver", "a"}, {"send", "a"},
		{"drop", "a"}, {"deliver", "b"}, {"deliver", "a"}, {"drop", "b"},
	}
	for _, o := range ops {
		switch o.op {
		case "send":
			d.Send(o.m)
			sent[o.m]++
		case "deliver":
			if d.CanDeliver(o.m) {
				if err := d.Deliver(o.m); err != nil {
					t.Fatal(err)
				}
				out[o.m]++
			}
		case "drop":
			if d.CanDrop(o.m) {
				if err := d.Drop(o.m); err != nil {
					t.Fatal(err)
				}
				out[o.m]++
			}
		}
		for m, n := range out {
			if n > sent[m] {
				t.Fatalf("message %q: out %d > sent %d", m, n, sent[m])
			}
		}
	}
}

func TestDupDelSemantics(t *testing.T) {
	t.Parallel()
	d := NewDupDel()
	if d.Kind() != KindDupDel {
		t.Fatalf("Kind() = %v", d.Kind())
	}
	d.Send("a")
	// Duplication still works.
	for i := 0; i < 3; i++ {
		if err := d.Deliver("a"); err != nil {
			t.Fatal(err)
		}
	}
	// Deletion erases the type.
	if !d.CanDrop("a") {
		t.Fatal("CanDrop = false")
	}
	if err := d.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if d.CanDeliver("a") {
		t.Error("erased type still deliverable")
	}
	if err := d.Drop("a"); err == nil {
		t.Error("dropped an absent type")
	}
	// Resending restores deliverability.
	d.Send("a")
	if !d.CanDeliver("a") {
		t.Error("resent type not deliverable")
	}
	if got := d.Dropped(); got != 1 {
		t.Errorf("Dropped() = %d", got)
	}
	// Clone independence and distinct kind keys.
	c := d.Clone()
	if err := c.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if !d.CanDeliver("a") {
		t.Error("clone shares sent-set")
	}
	pure := NewDup()
	pure.Send("a")
	if pure.Key() == d.Key() {
		t.Error("dup and dup+del halves share key")
	}
}

func TestNewKindDupDel(t *testing.T) {
	t.Parallel()
	h, err := New(KindDupDel)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != KindDupDel {
		t.Errorf("Kind() = %v", h.Kind())
	}
	if KindDupDel.String() != "dup+del" {
		t.Errorf("String() = %q", KindDupDel.String())
	}
}
