package trace

import (
	"strings"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/seq"
)

func TestActionConstructorsAndStrings(t *testing.T) {
	t.Parallel()
	tests := []struct {
		act  Action
		want string
	}{
		{TickS(), "tickS"},
		{TickR(), "tickR"},
		{Deliver(channel.SToR, "m"), "deliver[S→R,m]"},
		{Action{Kind: ActDeliverDup, Dir: channel.RToS, Msg: "k"}, "deliver+dup[R→S,k]"},
		{Drop(channel.SToR, "m"), "drop[S→R,m]"},
	}
	for _, tt := range tests {
		if got := tt.act.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
		if tt.act.Key() != tt.act.String() {
			t.Errorf("Key != String for %v", tt.act)
		}
	}
	if got := ActKind(99).String(); got != "ActKind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func sample() *Trace {
	tr := &Trace{Name: "test", Input: seq.FromInts(1, 2)}
	tr.Append(Entry{Time: 0, Act: TickS(), Sends: []msgT{"d:1"}})
	tr.Append(Entry{Time: 1, Act: Deliver(channel.SToR, "d:1"), Sends: []msgT{"a:1"}, Writes: seq.FromInts(1)})
	tr.Append(Entry{Time: 2, Act: TickR()})
	tr.Append(Entry{Time: 3, Act: Deliver(channel.RToS, "a:1")})
	tr.Append(Entry{Time: 4, Act: Drop(channel.SToR, "d:1")})
	tr.Append(Entry{Time: 5, Act: Action{Kind: ActDeliverDup, Dir: channel.SToR, Msg: "d:2"}, Writes: seq.FromInts(2)})
	return tr
}

func TestTraceOutput(t *testing.T) {
	t.Parallel()
	tr := sample()
	if y := tr.Output(-1); !y.Equal(seq.FromInts(1, 2)) {
		t.Errorf("Output(-1) = %s", y)
	}
	if y := tr.Output(2); !y.Equal(seq.FromInts(1)) {
		t.Errorf("Output(2) = %s", y)
	}
	if y := tr.Output(0); len(y) != 0 {
		t.Errorf("Output(0) = %s", y)
	}
	if tr.Len() != 6 {
		t.Errorf("Len() = %d", tr.Len())
	}
}

func TestReceiverView(t *testing.T) {
	t.Parallel()
	tr := sample()
	v := tr.ReceiverView(-1)
	// R sees: deliver d:1, tickR, deliver+dup d:2. Drops and R→S traffic
	// are invisible.
	if len(v) != 3 {
		t.Fatalf("view = %v", v)
	}
	if v[0].IsTick || v[0].Msg != "d:1" {
		t.Errorf("v[0] = %+v", v[0])
	}
	if !v[1].IsTick {
		t.Errorf("v[1] = %+v", v[1])
	}
	if v[2].Msg != "d:2" {
		t.Errorf("v[2] = %+v", v[2])
	}
	if got := tr.ReceiverView(2).Key(); got != "<d:1" {
		t.Errorf("partial view key = %q", got)
	}
}

func TestSenderView(t *testing.T) {
	t.Parallel()
	tr := sample()
	v := tr.SenderView(-1)
	// S sees: tickS, deliver a:1.
	if len(v) != 2 {
		t.Fatalf("view = %v", v)
	}
	if !v[0].IsTick || v[1].Msg != "a:1" {
		t.Errorf("view = %v", v)
	}
}

func TestViewKeyAndClone(t *testing.T) {
	t.Parallel()
	v := View{{IsTick: true}, {Msg: "x"}}
	if v.Key() != "·<x" {
		t.Errorf("Key() = %q", v.Key())
	}
	c := v.CloneView()
	c[0] = ViewEvent{Msg: "y"}
	if v[0].Msg == "y" {
		t.Error("CloneView shares storage")
	}
	if (View)(nil).CloneView() != nil {
		t.Error("CloneView(nil) != nil")
	}
}

func TestTraceString(t *testing.T) {
	t.Parallel()
	s := sample().String()
	for _, want := range []string{"run of test", "X = 1.2", "writes 1", "sends{d:1}", "drop[S→R,d:1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, s)
		}
	}
}

// msgT abbreviates msg.Msg in entry literals.
type msgT = msg.Msg
