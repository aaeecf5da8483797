package incr

// Serializable maintenance state. A MaintainedPres is more than its
// pres(Q): exact delta maintenance needs the classifier result c, the
// keyed measure m_k, the m̄ embedding-dedup set and the newk() counter.
// State captures all of it, so a view-registry snapshot can bring a
// materialization back *maintainable* — after a restart it keeps
// absorbing the store's delta feed instead of being recomputed, which is
// the whole point of warming views from disk.

import (
	"fmt"
	"slices"

	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/store"
)

// State is a point-in-time snapshot of a MaintainedPres, sufficient to
// reconstruct it with FromState over the same instance (same dictionary
// ID assignment — e.g. a store recovered to the exact version the state
// was taken at). The relations are shared, not copied: treat a State as
// immutable.
type State struct {
	// C is the maintained classifier result, Mk the keyed measure m_k,
	// Pres the materialized pres(Q).
	C, Mk, Pres *algebra.Relation
	// MbarKeys are the dedup keys of the m̄ embeddings seen so far.
	MbarKeys []string
	// NextKey continues the newk() sequence.
	NextKey uint64
	// Ver is the instance version the materialization reflects.
	Ver store.Version
}

// State exports the materialization's maintenance state. The error is
// always nil: an application either completes or leaves no trace.
func (mp *MaintainedPres) State() (*State, error) {
	keys := make([]string, 0, len(mp.mbarKeys))
	for k := range mp.mbarKeys {
		keys = append(keys, k)
	}
	return &State{
		C:        mp.c,
		Mk:       mp.mk,
		Pres:     mp.pres,
		MbarKeys: keys,
		NextKey:  mp.nextKey,
		Ver:      mp.ver,
	}, nil
}

// FromState reconstructs a maintained materialization of q from a
// previously exported State, without evaluating anything: the relations
// are adopted as-is and the root indexes are rebuilt from them; ans(Q)'s
// accumulators follow on the first Answer. The caller is responsible for
// the state belonging to q and to the evaluator's instance (the view
// registry guards this with fingerprints and store versions); structural
// mismatches are rejected.
func FromState(ev *core.Evaluator, q *core.Query, s *State) (*MaintainedPres, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if s.C == nil || s.Mk == nil || s.Pres == nil {
		return nil, fmt.Errorf("incr: incomplete state")
	}
	root := q.Root()
	wantC := append([]string{root}, q.Dims()...)
	wantPres := append(slices.Clone(wantC), core.KeyCol, q.MeasureVar())
	switch {
	case len(s.Mk.Cols) != 3 || s.Mk.Cols[0] != core.KeyCol || s.Mk.Cols[1] != root:
		return nil, fmt.Errorf("incr: m_k columns %v do not match query root %q", s.Mk.Cols, root)
	case !slices.Equal(s.C.Cols, wantC):
		return nil, fmt.Errorf("incr: classifier columns %v, want %v", s.C.Cols, wantC)
	case !slices.Equal(s.Pres.Cols, wantPres):
		return nil, fmt.Errorf("incr: pres columns %v, want %v", s.Pres.Cols, wantPres)
	}
	mp := &MaintainedPres{
		q:        q.Clone(),
		ev:       ev,
		inst:     ev.Instance(),
		c:        s.C,
		mbarKeys: make(map[string]struct{}, len(s.MbarKeys)),
		mbarQ:    mbarQuery(q),
		mk:       s.Mk,
		nextKey:  s.NextKey,
		pres:     s.Pres,
		ver:      s.Ver,
	}
	mp.index()
	for _, k := range s.MbarKeys {
		mp.mbarKeys[k] = struct{}{}
	}
	return mp, nil
}
