package core

import "sort"

// RegStore is one node's keyed register space: the per-key local copies
// (register_i, sn_i per RegisterID) plus the sorted-key cache that makes
// snapshot replies cheap. Every protocol node embeds one; the protocols
// differ in how operations complete (timed waits vs quorums), not in how
// values are stored, merged, and disseminated, so that part lives here
// once.
//
// Whether an absent key reads as ⊥ or as the implicit initial depends on
// the node's activation state, which only the protocol knows — hence the
// active parameter on Value and Merge.
type RegStore struct {
	vals map[RegisterID]VersionedValue
	// snapKeys caches vals' non-zero keys in ascending order for snapshot
	// replies; a new key's arrival invalidates it. Without it a churning
	// system pays a K·log K sort per inquiry answered.
	snapKeys      []RegisterID
	snapKeysDirty bool
}

// NewRegStore builds the store. A bootstrap node starts holding register
// 0's initial value; every other node starts empty and learns everything
// through its join and the writes it observes.
func NewRegStore(sc SpawnContext) *RegStore {
	s := &RegStore{vals: make(map[RegisterID]VersionedValue)}
	if sc.Bootstrap {
		s.vals[DefaultRegister] = sc.Initial
	}
	return s
}

// Value returns the node's current copy of one key: the learned value if
// any, the implicit initial state for never-written keys other than 0 on
// an active node, and ⊥ otherwise (joining, or key 0 whose configured
// initial value only the bootstrap population knows a priori).
func (s *RegStore) Value(k RegisterID, active bool) VersionedValue {
	if v, ok := s.vals[k]; ok {
		return v
	}
	if k != DefaultRegister && active {
		return ImplicitInitial()
	}
	return Bottom()
}

// Merge adopts v for key k if it supersedes the local copy, reporting
// whether it did.
func (s *RegStore) Merge(k RegisterID, v VersionedValue, active bool) bool {
	if v.MoreRecent(s.Value(k, active)) {
		s.Store(k, v)
		return true
	}
	return false
}

// Store writes a key's local copy unconditionally, tracking new-key
// arrivals for the snapshot cache.
func (s *RegStore) Store(k RegisterID, v VersionedValue) {
	if _, ok := s.vals[k]; !ok && k != DefaultRegister {
		s.snapKeysDirty = true
	}
	s.vals[k] = v
}

// Keys returns every key the store holds explicit state for, ascending.
func (s *RegStore) Keys() []RegisterID {
	ks := make([]RegisterID, 0, len(s.vals))
	for k := range s.vals {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// sortedNonZeroKeys returns the keys other than 0 in ascending order,
// cached between new-key arrivals.
func (s *RegStore) sortedNonZeroKeys() []RegisterID {
	if s.snapKeysDirty || (s.snapKeys == nil && len(s.vals) > 1) {
		ks := s.snapKeys[:0]
		for k := range s.vals {
			if k != DefaultRegister {
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		s.snapKeys = ks
		s.snapKeysDirty = false
	}
	return s.snapKeys
}

// SnapshotKey reads a node's local copy of one key, falling back to the
// single-register Snapshot for a node without KeyedSnapshotter (the
// atomicreg wrapper) — how the shard wrapper reads its inner node.
func SnapshotKey(node Node, k RegisterID) VersionedValue {
	if s, ok := node.(KeyedSnapshotter); ok {
		return s.SnapshotKey(k)
	}
	return node.Snapshot()
}

// SnapshotReply builds a REPLY carrying the node's entire register space:
// key 0 in the primary slot (⊥ if not yet learned, exactly as the
// original single-register reply), every other key in Rest in ascending
// order. One unicast disseminates every key — the batch dissemination
// that lets a process join once and serve any key.
func (s *RegStore) SnapshotReply(from ProcessID, rsn ReadSeq, active bool) ReplyMsg {
	// Op echoes the request's operation id, which for read-type requests
	// is numerically its read_sn (one counter feeds both tags).
	m := ReplyMsg{From: from, Value: s.Value(DefaultRegister, active), RSN: rsn, Op: OpID(rsn)}
	ks := s.sortedNonZeroKeys()
	if len(ks) == 0 {
		return m
	}
	m.Rest = make([]KeyedValue, len(ks))
	for i, k := range ks {
		m.Rest[i] = KeyedValue{Reg: k, Value: s.vals[k]}
	}
	return m
}
