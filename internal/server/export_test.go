package server

import "cosoft/internal/couple"

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
func (s *Server) UncachedCO(ref couple.ObjectRef) []couple.ObjectRef { return s.graph.CO(ref) }

// GroupLinks is the couple graph's view of ref's group: what every instance
// with an object in it must mirror.
func (s *Server) GroupLinks(ref couple.ObjectRef) ([]couple.ObjectRef, []couple.Link) {
	return s.graph.GroupLinks(ref)
}
