package core

import "errors"

// ErrUnroutable is the sharding error: the operation reached a node that
// may not serve it — a write invoked away from its key's primary
// (internal/shard), or a synchronous read, which returns the local copy,
// invoked outside the key's replica group (internal/syncreg). The
// operation was NOT applied.
var ErrUnroutable = errors.New("register: no reachable replica for key's shard")

// handoffBit marks a shard handoff's request tag. Operation tables count
// up from 1, so no operation's id ever has the top bit set.
const handoffBit OpID = 1 << 63

// HandoffOp is the request tag of a shard handoff inquiry (see
// internal/shard): a node that GAINED shard s under a new placement view
// asks the shard's previous/current replicas for a snapshot before
// serving it, and the donor's REPLY echoes the tag.
func HandoffOp(s int) OpID { return handoffBit | OpID(s) }

// HandoffShard reports the shard a handoff tag names, and whether op is
// a handoff tag at all.
func HandoffShard(op OpID) (int, bool) {
	return int(op &^ handoffBit), op&handoffBit != 0
}

// GroupSender is implemented by runtimes that can send one message to
// several processes for less than that many Sends (a transport that
// encodes the message once for the whole group). SendGroup(to, m) means
// exactly Send(id, m) for each id of to, in order; to is not retained,
// and m is copied before SendGroup returns.
type GroupSender interface {
	SendGroup(to []ProcessID, m Message)
}
