package core

import (
	"testing"
	"testing/quick"
)

func TestBottomSentinel(t *testing.T) {
	b := Bottom()
	if !b.IsBottom() {
		t.Fatal("Bottom() is not bottom")
	}
	if b.SN != BottomSN {
		t.Fatalf("Bottom SN = %d, want %d", b.SN, BottomSN)
	}
	v := VersionedValue{Val: 7, SN: 0}
	if v.IsBottom() {
		t.Fatal("initial value (sn=0) must not be bottom")
	}
}

func TestMoreRecent(t *testing.T) {
	cases := []struct {
		name string
		a, b VersionedValue
		want bool
	}{
		{"later beats earlier", VersionedValue{1, 2}, VersionedValue{9, 1}, true},
		{"earlier loses", VersionedValue{9, 1}, VersionedValue{1, 2}, false},
		{"equal sn not more recent", VersionedValue{1, 3}, VersionedValue{2, 3}, false},
		{"anything beats bottom", VersionedValue{0, 0}, Bottom(), true},
		{"bottom beats nothing", Bottom(), VersionedValue{0, 0}, false},
		{"bottom vs bottom", Bottom(), Bottom(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.MoreRecent(tc.b); got != tc.want {
				t.Fatalf("%v.MoreRecent(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// Property: MoreRecent is a strict partial order on versioned values:
// irreflexive and asymmetric.
func TestMoreRecentStrictOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va := VersionedValue{SN: SeqNum(a % 100)}
		vb := VersionedValue{SN: SeqNum(b % 100)}
		if va.MoreRecent(va) {
			return false
		}
		if va.MoreRecent(vb) && vb.MoreRecent(va) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionedValueString(t *testing.T) {
	if got := Bottom().String(); got != "⟨⊥⟩" {
		t.Fatalf("Bottom.String = %q", got)
	}
	if got := (VersionedValue{Val: 5, SN: 3}).String(); got != "⟨5,#3⟩" {
		t.Fatalf("String = %q", got)
	}
}

func TestProcessIDString(t *testing.T) {
	if got := ProcessID(17).String(); got != "p17" {
		t.Fatalf("ProcessID.String = %q", got)
	}
}

func TestMsgKindStrings(t *testing.T) {
	want := map[MsgKind]string{
		KindInquiry: "INQUIRY",
		KindReply:   "REPLY",
		KindWrite:   "WRITE",
		KindAck:     "ACK",
		KindRead:    "READ",
		KindDLPrev:  "DL_PREV",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := MsgKind(99).String(); got != "MsgKind(99)" {
		t.Fatalf("unknown kind String = %q", got)
	}
}

func TestMessageKindsMatchTypes(t *testing.T) {
	cases := []struct {
		m    Message
		kind MsgKind
	}{
		{InquiryMsg{}, KindInquiry},
		{ReplyMsg{}, KindReply},
		{WriteMsg{}, KindWrite},
		{AckMsg{}, KindAck},
		{ReadMsg{}, KindRead},
		{DLPrevMsg{}, KindDLPrev},
	}
	for _, tc := range cases {
		if tc.m.Kind() != tc.kind {
			t.Fatalf("%T.Kind() = %v, want %v", tc.m, tc.m.Kind(), tc.kind)
		}
	}
}
