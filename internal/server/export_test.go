package server

import (
	"fmt"
	"regexp"
	"strconv"

	"cosoft/internal/couple"
)

// Test-only views of shard placement and the lock tables for the external
// server_test package.

// HarnessShards is the shard count of every test server whose test does not
// ask for one: the product topology, pinned so cross-shard migration
// coverage does not depend on the runner's core count.
const HarnessShards = 4

// ShardOf returns the index of the shard that currently owns ref.
func (s *Server) ShardOf(ref couple.ObjectRef) int { return s.shardForRef(ref).idx }

// LocksHeld counts the lock entries across every shard's table.
func (s *Server) LocksHeld() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.locks.Len()
	}
	return n
}

// UncachedCO is CO(ref) straight from the couple graph — what every cached
// broadcast plan must agree with.
func (s *Server) UncachedCO(ref couple.ObjectRef) []couple.ObjectRef { return s.st.graph.CO(ref) }

// GroupLinks is the couple graph's view of ref's group: what every instance
// with an object in it must mirror.
func (s *Server) GroupLinks(ref couple.ObjectRef) ([]couple.ObjectRef, []couple.Link) {
	return s.st.graph.GroupLinks(ref)
}

var seqLine = regexp.MustCompile(`(?m)^(shard \d+) seq=(\d+)$`)

// FoldDivergence checks the invariant live = fold(log): it restores a fresh
// state from the server's log directory, reads the live state on the loops
// that own it, and describes how the two differ — "" when they do not, when
// the server has no log, or once it is closed.
//
// One part is compared as an inequality. A shard's event sequence advances
// when an event asks for the group lock, and the event is logged only when it
// gets it, so after a denied event the live sequence is ahead of the logged
// one; a restart falls back to the logged one, which is still past every ID
// the log — and so any member — ever saw.
func (s *Server) FoldDivergence() string {
	if s.elog == nil {
		return ""
	}
	live := liveDigest(s)
	if live == "" {
		return ""
	}
	fold := newState(len(s.shards), s.opts.HistoryDepth, nil)
	if _, _, err := fold.restore(s.elog.Dir(), nil); err != nil {
		return "restore: " + err.Error()
	}
	restored := fold.digest()
	if a, b := seqLine.ReplaceAllString(live, "$1"), seqLine.ReplaceAllString(restored, "$1"); a != b {
		return fmt.Sprintf("live state\n%s\nrestored from the log\n%s", live, restored)
	}
	logged := seqLine.FindAllStringSubmatch(restored, -1)
	for i, m := range seqLine.FindAllStringSubmatch(live, -1) {
		have, _ := strconv.ParseUint(m[2], 10, 64)
		if want, _ := strconv.ParseUint(logged[i][2], 10, 64); have < want {
			return fmt.Sprintf("%s: live sequence %d is behind the logged %d", m[1], have, want)
		}
	}
	return ""
}
