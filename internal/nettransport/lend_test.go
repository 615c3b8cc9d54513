package nettransport

// Tests of the lending contract: a sender refills the record it sent from
// as soon as Send returns, and a node is handed the runtime's record,
// valid only for its Deliver call, so every delivery must read as its own
// frame was sent.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
)

// TestSelfSendsFromOneRecordArriveAsSent: in one turn a handler sends
// itself two messages from one record, refilling it between the sends.
// Both arrive, after the handler and in order, each reading as it was
// sent.
func TestSelfSendsFromOneRecordArriveAsSent(t *testing.T) {
	var rec core.ReadMsg
	tr, p := newProbeTransport(t, func(p *probe, from core.ProcessID, m core.Message) {
		if m.(*core.ReadMsg).Op != 100 {
			return
		}
		rec = core.ReadMsg{From: 1, Op: 1}
		p.env.Send(1, &rec)
		rec.Op = 2
		p.env.Send(1, &rec)
		rec.Op = 3
		p.events = append(p.events, "handler 100 returns")
	}, nil)
	serve(tr, batch(t, 2, 100))
	want := []string{"deliver 100 from p2", "handler 100 returns", "deliver 1 from p1", "deliver 2 from p1"}
	if !reflect.DeepEqual(p.events, want) {
		t.Fatalf("events:\n got %q\nwant %q", p.events, want)
	}
}

// replyKeeper is a node that keeps a copy of every REPLY it is handed,
// the record it came in, and the Rest slice it carried.
type replyKeeper struct {
	env     core.Env
	mu      sync.Mutex
	got     []core.ReplyMsg
	records map[*core.ReplyMsg]bool
}

func (k *replyKeeper) Start()                        {}
func (k *replyKeeper) Active() bool                  { return true }
func (k *replyKeeper) Snapshot() core.VersionedValue { return core.VersionedValue{} }

func (k *replyKeeper) Deliver(_ core.ProcessID, m core.Message) {
	r := m.(*core.ReplyMsg)
	k.mu.Lock()
	defer k.mu.Unlock()
	k.got = append(k.got, *r)
	k.records[r] = true
}

// TestReplyStreamOverSocketLendsOneRecord: one process sends another a
// stream of snapshot REPLYs over a real socket, all from one record it
// refills, in one turn. Each delivery reads as its own frame was sent,
// though the receiver's reader lends it the same record every time, and
// the snapshot entries it kept are still its own.
func TestReplyStreamOverSocketLendsOneRecord(t *testing.T) {
	var nodes []*replyKeeper
	ts := startCluster(t, 2, func(env core.Env, _ core.SpawnContext) core.Node {
		k := &replyKeeper{env: env, records: map[*core.ReplyMsg]bool{}}
		nodes = append(nodes, k)
		return k
	}, 5)
	waitPeerCount(t, ts[0], 1)
	const replies = 200
	want := func(i int) core.ReplyMsg {
		v := core.VersionedValue{Val: core.Value(10 * i), SN: core.SeqNum(i)}
		return core.ReplyMsg{From: 1, Value: v, Reg: core.RegisterID(i), Op: core.OpID(i),
			Rest: []core.KeyedValue{{Reg: core.RegisterID(i + 1), Value: v}}}
	}
	ts[0].Invoke(func(core.Node) {
		var rec core.ReplyMsg
		for i := 1; i <= replies; i++ {
			rec = want(i)
			nodes[0].env.Send(2, &rec)
		}
	})
	got := func() []core.ReplyMsg {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		return append([]core.ReplyMsg(nil), nodes[1].got...)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(got()) < replies && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	all := got()
	if len(all) != replies {
		t.Fatalf("delivered %d REPLYs, want %d", len(all), replies)
	}
	for i, r := range all {
		if w := want(i + 1); !reflect.DeepEqual(r, w) {
			t.Fatalf("delivery %d reads %+v, want %+v", i, r, w)
		}
	}
	if n := len(nodes[1].records); n != 1 {
		t.Errorf("the reader lent %d records for one kind's stream, want 1", n)
	}
}
