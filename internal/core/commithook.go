package core

import "errors"

// GroupLogger makes a validated write group durable just before it is
// applied. WriteGroup.Commit calls LogGroup inside its critical
// section — the publish lock held shared, every touched relation's
// mutex held — after phase-1 validation has succeeded and before
// anything mutates. Returning an error aborts the commit with nothing
// applied anywhere, exactly like a validation failure; returning nil
// lets the apply proceed.
//
// Each relation names its own logger (SetLogger); the storage layer's
// durable store sets itself on the relations it owns, so core stays
// storage-agnostic. Holding the locks guarantees that (a) no Pin can
// interleave between the log append and the in-memory apply, and (b)
// groups touching a common relation reach the log in apply order.
//
// The group LogGroup receives holds only the ops of the relations the
// logger owns. Commit compares loggers with ==, so an implementation
// must be comparable (a pointer type, in practice). A logger must not
// stage into or commit write groups, pin, or otherwise take
// publish/relation locks — it already holds them.
type GroupLogger interface {
	LogGroup(g *WriteGroup) error
}

// errTwoLoggers refuses a group whose relations name two different
// loggers: logging half of it into each would let a crash between the
// two appends recover one log with a group the other never saw.
var errTwoLoggers = errors.New("core: write group spans relations with different loggers")

// SetLogger makes l the logger of r's write-group commits; nil stops
// logging them. Direct Insert/InsertMerging/InsertBatch calls are
// never logged.
func (r *Relation) SetLogger(l GroupLogger) {
	r.mu.Lock()
	r.logger = l
	r.mu.Unlock()
}

// logLocked hands the group's logged part to its one logger, if any.
// The caller holds every touched relation's mutex.
func (g *WriteGroup) logLocked() error {
	var lg GroupLogger
	for _, r := range g.order {
		switch {
		case r.logger == nil || r.logger == lg:
		case lg == nil:
			lg = r.logger
		default:
			return errTwoLoggers
		}
	}
	if lg == nil {
		return nil
	}
	part := &WriteGroup{ops: make(map[*Relation][]groupOp)}
	for _, r := range g.order {
		if r.logger == lg {
			part.order = append(part.order, r)
			part.ops[r] = g.ops[r]
		}
	}
	return lg.LogGroup(part)
}

// Ops walks the staged mutations in staging order grouped by relation
// (the same order Commit validates in), handing fn each tuple and
// whether it was staged with merging semantics. The callback must not
// mutate the group or the tuples.
func (g *WriteGroup) Ops(fn func(r *Relation, t *Tuple, merging bool)) {
	for _, r := range g.order {
		for _, op := range g.ops[r] {
			fn(r, op.tuple, op.merging)
		}
	}
}
