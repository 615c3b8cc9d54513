package esyncreg

// Unit tests drive a Node directly through a fake Env, pinning the
// line-by-line behaviour of Figures 4-6 — including the property that the
// protocol never consults time (After/Delta panic in the fake).

import (
	"reflect"
	"slices"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/sim"
)

type sent struct {
	to  core.ProcessID
	msg core.Message
}

type fakeEnv struct {
	id     core.ProcessID
	n      int
	sent   []sent
	bcasts []core.Message
	active bool
	// sentAtActive is len(sent) when MarkActive ran.
	sentAtActive int
}

func (e *fakeEnv) ID() core.ProcessID { return e.id }
func (e *fakeEnv) Now() sim.Time      { return 0 }

// Send and Broadcast keep a copy of m, as a runtime's do: the node refills
// the record it sent from.
func (e *fakeEnv) Send(to core.ProcessID, m core.Message) {
	e.sent = append(e.sent, sent{to: to, msg: copied(m)})
}

func (e *fakeEnv) Broadcast(m core.Message) { e.bcasts = append(e.bcasts, copied(m)) }

// copied is a record of m's own.
func copied(m core.Message) core.Message {
	r := reflect.New(reflect.TypeOf(m).Elem())
	r.Elem().Set(reflect.ValueOf(m).Elem())
	return r.Interface().(core.Message)
}

func (e *fakeEnv) After(sim.Duration, func()) {
	panic("esyncreg consulted a timer: the protocol must be time-free")
}

func (e *fakeEnv) Delta() sim.Duration {
	panic("esyncreg consulted δ: the protocol must be time-free")
}

func (e *fakeEnv) SystemSize() int { return e.n }
func (e *fakeEnv) MarkActive() {
	e.active = true
	e.sentAtActive = len(e.sent)
}

var _ core.Env = (*fakeEnv)(nil)

func newJoining(n int, opts Options) (*Node, *fakeEnv) {
	env := &fakeEnv{id: 100, n: n}
	node := New(env, core.SpawnContext{}, opts)
	node.Start()
	return node, env
}

func newActive(n int, opts Options) (*Node, *fakeEnv) {
	env := &fakeEnv{id: 100, n: n}
	node := New(env, core.SpawnContext{Bootstrap: true, Initial: core.VersionedValue{Val: 0, SN: 0}}, opts)
	node.Start()
	return node, env
}

func lastSent(t *testing.T, env *fakeEnv) sent {
	t.Helper()
	if len(env.sent) == 0 {
		t.Fatal("nothing sent")
	}
	return env.sent[len(env.sent)-1]
}

// reply is REPLY(⟨from, ⟨val, sn⟩⟩, r_sn); r_sn is the Op it echoes.
func reply(from core.ProcessID, val core.Value, sn core.SeqNum, rsn core.OpID) *core.ReplyMsg {
	return &core.ReplyMsg{From: from, Value: core.VersionedValue{Val: val, SN: sn}, Op: rsn}
}

// opOn returns the newest in-flight operation on key k (nil if none) —
// the test-side window into the operation table.
func opOn(n *Node, k core.RegisterID) *op {
	var found *op
	for _, id := range n.ops.IDs() {
		if o, ok := n.ops.Get(id); ok && o.reg == k {
			found = o
		}
	}
	return found
}

func TestJoinBroadcastsInquiryZero(t *testing.T) {
	_, env := newJoining(5, Options{})
	if len(env.bcasts) != 1 {
		t.Fatalf("broadcasts = %d, want 1", len(env.bcasts))
	}
	inq, ok := env.bcasts[0].(*core.InquiryMsg)
	if !ok || inq.Op != core.NoOp || inq.From != 100 {
		t.Fatalf("join broadcast = %#v, want INQUIRY(p100, 0)", env.bcasts[0])
	}
}

func TestJoinWaitsForMajority(t *testing.T) {
	n, env := newJoining(5, Options{}) // majority = 3
	n.Deliver(1, reply(1, 7, 2, 0))
	n.Deliver(2, reply(2, 5, 1, 0))
	if n.Active() {
		t.Fatal("joined with 2 of 3 required replies")
	}
	n.Deliver(3, reply(3, 5, 1, 0))
	if !n.Active() || !env.active {
		t.Fatal("did not join after majority of replies")
	}
	if v := n.Snapshot(); v.Val != 7 || v.SN != 2 {
		t.Fatalf("adopted %v, want highest-sn ⟨7,#2⟩", v)
	}
}

func TestJoinDuplicateRepliersCountOnce(t *testing.T) {
	n, _ := newJoining(5, Options{})
	n.Deliver(1, reply(1, 1, 1, 0))
	n.Deliver(1, reply(1, 1, 1, 0))
	n.Deliver(1, reply(1, 1, 1, 0))
	if n.Active() {
		t.Fatal("three replies from the same process satisfied a 3-quorum")
	}
}

func TestReplyWithWrongRSNIgnored(t *testing.T) {
	n, env := newJoining(5, Options{})
	before := len(env.sent)
	n.Deliver(1, reply(1, 9, 9, 4)) // r_sn 4 != our read_sn 0
	if len(slices.Collect(n.join.Values)) != 0 {
		t.Fatal("stale reply recorded")
	}
	if len(env.sent) != before {
		t.Fatal("stale reply was ACKed")
	}
	if n.Stats().StaleRepliesSeen != 1 {
		t.Fatal("stale reply not counted")
	}
}

func TestReplyAckCarriesRegisterSN(t *testing.T) {
	n, env := newJoining(5, Options{})
	n.Deliver(1, reply(1, 9, 4, 0))
	s := lastSent(t, env)
	ack, ok := s.msg.(*core.AckMsg)
	if !ok || s.to != 1 {
		t.Fatalf("reply not ACKed: %#v", s)
	}
	if ack.SN != 4 {
		t.Fatalf("ACK.SN = %d, want the reply's register sn 4", ack.SN)
	}
	_ = n
}

func TestReplyAckLiteralVariantCarriesRSN(t *testing.T) {
	n, env := newJoining(5, Options{LiteralAckRSN: true})
	n.Deliver(1, reply(1, 9, 4, 0))
	ack := lastSent(t, env).msg.(*core.AckMsg)
	if ack.SN != core.SeqNum(core.NoOp) {
		t.Fatalf("literal ACK.SN = %d, want r_sn 0", ack.SN)
	}
	_ = n
}

func TestInquiryWhileActiveRepliesImmediately(t *testing.T) {
	n, env := newActive(5, Options{})
	n.vals.Store(core.DefaultRegister, core.VersionedValue{Val: 3, SN: 2})
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: 0})
	s := lastSent(t, env)
	r, ok := s.msg.(*core.ReplyMsg)
	if !ok || s.to != 7 {
		t.Fatalf("no reply to inquiry: %#v", s)
	}
	if r.Value.SN != 2 || r.Op != 0 {
		t.Fatalf("reply = %#v, want register ⟨3,#2⟩ echoing rsn 0", r)
	}
}

func TestInquiryWhileActiveAndReadingAddsDLPrev(t *testing.T) {
	n, env := newActive(5, Options{})
	if err := n.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	env.sent = nil
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: 0})
	if len(env.sent) != 2 {
		t.Fatalf("sent %d messages, want REPLY + DL_PREV", len(env.sent))
	}
	dl, ok := env.sent[1].msg.(*core.DLPrevMsg)
	if !ok {
		t.Fatalf("second message = %#v, want DL_PREV", env.sent[1].msg)
	}
	if dl.Op != 1 {
		t.Fatalf("DL_PREV.Op = %d, want our pending read_sn 1", dl.Op)
	}
}

func TestInquiryWhileJoiningDefersAndSendsDLPrev(t *testing.T) {
	n, env := newJoining(5, Options{})
	env.sent = nil
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: 0})
	if len(n.replyToList) != 1 || n.replyToList[0] != (reqKey{id: 7, op: 0}) {
		t.Fatalf("reply_to = %v, want [(p7,0)]", n.replyToList)
	}
	dl, ok := lastSent(t, env).msg.(*core.DLPrevMsg)
	if !ok || dl.Op != 0 {
		t.Fatalf("DL_PREV = %#v, want rsn 0 (our pending join)", lastSent(t, env).msg)
	}
}

func TestInquiryDLPrevDisabled(t *testing.T) {
	n, env := newJoining(5, Options{DisableDLPrev: true})
	env.sent = nil
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: 0})
	if len(env.sent) != 0 {
		t.Fatalf("ablated node sent %v, want nothing", env.sent)
	}
	if len(n.replyToList) != 1 {
		t.Fatal("deferral must survive the ablation")
	}
}

func TestJoinCompletionFlushesDeferredOnce(t *testing.T) {
	n, env := newJoining(5, Options{})
	// Same requester lands in both reply_to (via INQUIRY) and dl_prev
	// (via DL_PREV): the flush must reply once.
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: 0})
	n.Deliver(7, &core.DLPrevMsg{From: 7, Op: 0})
	n.Deliver(8, &core.ReadMsg{From: 8, Op: 3})
	env.sent = nil
	n.Deliver(1, reply(1, 1, 1, 0))
	n.Deliver(2, reply(2, 1, 1, 0))
	n.Deliver(3, reply(3, 1, 1, 0))
	if !n.Active() {
		t.Fatal("join incomplete")
	}
	var replies []sent
	for _, s := range env.sent {
		if _, ok := s.msg.(*core.ReplyMsg); ok {
			replies = append(replies, s)
		}
	}
	if len(replies) != 2 {
		t.Fatalf("deferred replies = %d (%v), want 2 (p7 once, p8 once)", len(replies), replies)
	}
	seen := make([]core.OpID, 9) // by process id
	for _, s := range replies {
		seen[s.to] = s.msg.(*core.ReplyMsg).Op
	}
	if seen[7] != 0 || seen[8] != 3 {
		t.Fatalf("deferred replies carry wrong rsn: %v", seen)
	}
}

func TestReadBroadcastsAndCompletesOnMajority(t *testing.T) {
	n, env := newActive(5, Options{})
	var got core.VersionedValue
	doneRan := false
	if err := n.Read(0, func(v core.VersionedValue, _ error) { got = v; doneRan = true }); err != nil {
		t.Fatal(err)
	}
	rd, ok := env.bcasts[len(env.bcasts)-1].(*core.ReadMsg)
	if !ok || rd.Op != 1 {
		t.Fatalf("read broadcast = %#v, want READ(_, 1)", env.bcasts[len(env.bcasts)-1])
	}
	n.Deliver(1, reply(1, 50, 5, 1))
	n.Deliver(2, reply(2, 0, 0, 1))
	if doneRan {
		t.Fatal("read returned before majority")
	}
	n.Deliver(3, reply(3, 0, 0, 1))
	if !doneRan {
		t.Fatal("read did not return on majority")
	}
	if got.Val != 50 || got.SN != 5 {
		t.Fatalf("read returned %v, want merged ⟨50,#5⟩", got)
	}
}

func TestSecondReadUsesFreshRSNAndIgnoresOldReplies(t *testing.T) {
	n, _ := newActive(5, Options{})
	if err := n.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.ProcessID{1, 2, 3} {
		n.Deliver(p, reply(p, 0, 0, 1))
	}
	if err := n.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	// Replies to read #1 must not count toward read #2.
	n.Deliver(1, reply(1, 0, 0, 1))
	n.Deliver(2, reply(2, 0, 0, 1))
	n.Deliver(3, reply(3, 0, 0, 1))
	if o := opOn(n, core.DefaultRegister); o == nil || !o.reading {
		t.Fatal("read #2 completed on stale replies")
	}
	n.Deliver(1, reply(1, 0, 0, 2))
	n.Deliver(2, reply(2, 0, 0, 2))
	n.Deliver(3, reply(3, 0, 0, 2))
	if opOn(n, core.DefaultRegister) != nil {
		t.Fatal("read #2 did not complete on fresh replies")
	}
}

func TestWriteEmbedsReadThenBroadcastsWrite(t *testing.T) {
	n, env := newActive(5, Options{})
	doneRan := false
	if err := n.Write(0, 77, func(core.VersionedValue, error) { doneRan = true }); err != nil {
		t.Fatal(err)
	}
	// Phase 1: the embedded read.
	if _, ok := env.bcasts[len(env.bcasts)-1].(*core.ReadMsg); !ok {
		t.Fatalf("write did not read first: %#v", env.bcasts[len(env.bcasts)-1])
	}
	n.Deliver(1, reply(1, 5, 3, 1)) // some process knows sn 3
	n.Deliver(2, reply(2, 0, 0, 1))
	n.Deliver(3, reply(3, 0, 0, 1))
	// Phase 2: the WRITE broadcast with sn = 3+1.
	w, ok := env.bcasts[len(env.bcasts)-1].(*core.WriteMsg)
	if !ok {
		t.Fatalf("no WRITE broadcast after embedded read: %#v", env.bcasts[len(env.bcasts)-1])
	}
	if w.Value.Val != 77 || w.Value.SN != 4 {
		t.Fatalf("WRITE = %v, want ⟨77,#4⟩", w.Value)
	}
	// ACKs: needs 3.
	n.Deliver(1, &core.AckMsg{From: 1, SN: 4})
	n.Deliver(2, &core.AckMsg{From: 2, SN: 4})
	if doneRan {
		t.Fatal("write returned before ACK majority")
	}
	n.Deliver(3, &core.AckMsg{From: 3, SN: 4})
	if !doneRan {
		t.Fatal("write did not return on ACK majority")
	}
}

// TestWriteAckQuorumIsItsOwn: the processes that answered a write's
// embedded read do not count toward its WRITE's ACK quorum. The round is
// reopened as the WRITE goes out, so after a read quorum of three one ACK
// leaves the write waiting for two more.
func TestWriteAckQuorumIsItsOwn(t *testing.T) {
	n, _ := newActive(5, Options{})
	doneRan := false
	if err := n.Write(0, 77, func(core.VersionedValue, error) { doneRan = true }); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.ProcessID{1, 2, 3} {
		n.Deliver(p, reply(p, 0, 0, 1))
	}
	n.Deliver(4, &core.AckMsg{From: 4, SN: 1, Op: 1})
	if doneRan {
		t.Fatal("one ACK completed the write: its read phase's three repliers counted toward the ACK quorum")
	}
	n.Deliver(1, &core.AckMsg{From: 1, SN: 1, Op: 1})
	n.Deliver(2, &core.AckMsg{From: 2, SN: 1, Op: 1})
	if !doneRan {
		t.Fatal("write did not return on an ACK majority")
	}
}

func TestAckWithWrongSNIgnored(t *testing.T) {
	n, _ := newActive(5, Options{})
	if err := n.Write(0, 1, ignoreWrite); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.ProcessID{1, 2, 3} {
		n.Deliver(p, reply(p, 0, 0, 1))
	}
	n.Deliver(1, &core.AckMsg{From: 1, SN: 0}) // stale sn
	n.Deliver(2, &core.AckMsg{From: 2, SN: 9}) // future sn
	if wa := slices.Collect(opOn(n, core.DefaultRegister).round.Values); len(wa) != 0 {
		t.Fatalf("mismatched ACKs counted: %v", wa)
	}
}

func TestWriteDeliveryUpdatesAndAlwaysAcks(t *testing.T) {
	n, env := newActive(5, Options{})
	env.sent = nil
	n.Deliver(9, &core.WriteMsg{From: 9, Value: core.VersionedValue{Val: 8, SN: 2}})
	if v := n.Snapshot(); v.Val != 8 || v.SN != 2 {
		t.Fatalf("WRITE not applied: %v", v)
	}
	ack := lastSent(t, env).msg.(*core.AckMsg)
	if ack.SN != 2 {
		t.Fatalf("ACK.SN = %d, want 2", ack.SN)
	}
	// Stale write: not applied, still ACKed (Figure 6 line 08).
	n.Deliver(9, &core.WriteMsg{From: 9, Value: core.VersionedValue{Val: 1, SN: 1}})
	if v := n.Snapshot(); v.SN != 2 {
		t.Fatalf("stale WRITE applied: %v", v)
	}
	ack = lastSent(t, env).msg.(*core.AckMsg)
	if ack.SN != 1 {
		t.Fatalf("stale WRITE not ACKed with its sn: %d", ack.SN)
	}
}

func TestJoiningProcessAppliesWrites(t *testing.T) {
	n, _ := newJoining(5, Options{})
	n.Deliver(9, &core.WriteMsg{From: 9, Value: core.VersionedValue{Val: 8, SN: 2}})
	if v := n.Snapshot(); v.Val != 8 || v.SN != 2 {
		t.Fatalf("listening process did not apply WRITE: %v", v)
	}
}

func TestReadWhileJoiningDefersWithoutDLPrev(t *testing.T) {
	n, env := newJoining(5, Options{})
	env.sent = nil
	n.Deliver(7, &core.ReadMsg{From: 7, Op: 2})
	if len(n.replyToList) != 1 || n.replyToList[0] != (reqKey{id: 7, op: 2}) {
		t.Fatalf("READ not deferred: %v", n.replyToList)
	}
	// Figure 5's READ handler sends no DL_PREV (unlike INQUIRY's).
	if len(env.sent) != 0 {
		t.Fatalf("READ handler sent %v, want nothing", env.sent)
	}
}

func TestDLPrevAtActiveNodeAnswersImmediately(t *testing.T) {
	n, env := newActive(5, Options{})
	env.sent = nil
	n.Deliver(7, &core.DLPrevMsg{From: 7, Op: 4})
	r, ok := lastSent(t, env).msg.(*core.ReplyMsg)
	if !ok || r.Op != 4 {
		t.Fatalf("late DL_PREV not answered: %#v", lastSent(t, env).msg)
	}
}

func TestOperationGuards(t *testing.T) {
	joining, _ := newJoining(5, Options{})
	if err := joining.Read(0, ignoreRead); err != core.ErrNotActive {
		t.Fatalf("Read while joining = %v, want ErrNotActive", err)
	}
	if err := joining.Write(0, 1, ignoreWrite); err != core.ErrNotActive {
		t.Fatalf("Write while joining = %v, want ErrNotActive", err)
	}

	// Sequentiality is relaxed: a second read and a write during a read
	// are pipelined, each its own op-table entry.
	active, _ := newActive(5, Options{})
	if err := active.Read(0, ignoreRead); err != nil {
		t.Fatal(err)
	}
	if err := active.Read(0, ignoreRead); err != nil {
		t.Fatalf("pipelined second Read = %v, want nil", err)
	}
	if err := active.Write(0, 1, ignoreWrite); err != nil {
		t.Fatalf("Write during reads = %v, want nil", err)
	}
	if got := active.PendingOps(); got != 3 {
		t.Fatalf("PendingOps = %d, want 3", got)
	}
	// ErrOpInProgress survives as backpressure: it fires only when the
	// operation table is full.
	for active.PendingOps() < core.MaxInFlightOps {
		if err := active.Read(0, ignoreRead); err != nil {
			t.Fatal(err)
		}
	}
	if err := active.Read(0, ignoreRead); err != core.ErrOpInProgress {
		t.Fatalf("Read with a full op table = %v, want ErrOpInProgress", err)
	}
}

// TestDeferredRepliesPrecedeMarkActive pins Figure 4's order at the end
// of a join: the REPLY deferred to a concurrent joiner's INQUIRY (lines
// 08-10) is queued before the join returns ok and MarkActive runs (line
// 11).
func TestDeferredRepliesPrecedeMarkActive(t *testing.T) {
	n, env := newJoining(3, Options{}) // majority = 2
	n.Deliver(7, &core.InquiryMsg{From: 7, Op: core.NoOp})
	if _, ok := lastSent(t, env).msg.(*core.DLPrevMsg); !ok || len(env.sent) != 1 {
		t.Fatalf("a joining node answered an INQUIRY with %v, want one DL_PREV", env.sent)
	}
	n.Deliver(1, reply(1, 0, 0, 0))
	n.Deliver(2, reply(2, 0, 0, 0))
	if !env.active {
		t.Fatal("join with a majority of replies did not call MarkActive")
	}
	last := lastSent(t, env)
	if r, ok := last.msg.(*core.ReplyMsg); !ok || last.to != 7 || r.Op != core.NoOp {
		t.Fatalf("last send = %v to %v, want the deferred join REPLY to p7", last.msg, last.to)
	}
	if env.sentAtActive != len(env.sent) {
		t.Fatalf("MarkActive ran after %d of %d sends, want after the deferred REPLY", env.sentAtActive, len(env.sent))
	}
}

func TestDeliverUnknownKindPanics(t *testing.T) {
	n, _ := newActive(5, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown message kind did not panic")
		}
	}()
	n.Deliver(1, fakeMsg{})
}

type fakeMsg struct{}

func (fakeMsg) Kind() core.MsgKind { return core.MsgKind(42) }

// ignoreWrite is a write's done callback for a test that does not look
// at the outcome.
func ignoreWrite(core.VersionedValue, error) {}

// ignoreRead is a read's done callback for a test that does not look at
// the outcome.
func ignoreRead(core.VersionedValue, error) {}
