// Package syncmodel tracks the vector clocks attached to synchronization
// objects: the release clocks of mutexes, the cumulative clocks of
// semaphores and atomic variables, and barrier generations.
//
// The race detector consumes this table to build happens-before edges; it is
// split out of the detector because the demand-driven controller keeps sync
// tracking *always on* (the paper instruments synchronization continuously
// — only data-access analysis is toggled), so the sync clocks must stay
// coherent even while data analysis is disabled.
package syncmodel

import (
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// Table holds the clocks of every sync object in a program.
type Table struct {
	mutexes []*vclock.VC
	sems    []*vclock.VC
	atomics map[mem.Addr]*vclock.VC
}

// NewTable sizes a table for a program's sync objects.
func NewTable(mutexes, semaphores int) *Table {
	t := &Table{
		mutexes: make([]*vclock.VC, 0, mutexes),
		sems:    make([]*vclock.VC, 0, semaphores),
		atomics: make(map[mem.Addr]*vclock.VC),
	}
	t.Grow(mutexes, semaphores)
	return t
}

// Grow extends the table to at least the given mutex and semaphore
// counts. New objects start at the zero clock, as NewTable starts them.
func (t *Table) Grow(mutexes, semaphores int) {
	for len(t.mutexes) < mutexes {
		t.mutexes = append(t.mutexes, vclock.New(0))
	}
	for len(t.sems) < semaphores {
		t.sems = append(t.sems, vclock.New(0))
	}
}

// Mutex returns the release clock of mutex id.
func (t *Table) Mutex(id program.SyncID) *vclock.VC { return t.mutexes[id] }

// Sem returns the cumulative clock of semaphore id.
func (t *Table) Sem(id program.SyncID) *vclock.VC { return t.sems[id] }

// Atomic returns the clock of the atomic variable at addr (word-normalized),
// creating it on first use.
func (t *Table) Atomic(addr mem.Addr) *vclock.VC {
	w := mem.WordOf(addr)
	c, ok := t.atomics[w]
	if !ok {
		c = vclock.New(0)
		t.atomics[w] = c
	}
	return c
}
