package pubsub

import (
	"fmt"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Probe is the measurement seam for one view: the classic engine's
// maintainer over db, with no redo log and no checkpoint, fed the way the
// broker feeds a subscription. Calibration, the paper's figures and the
// examples measure f_i(k) through its Apply and Drain, so the work they
// count is the work the broker's drains count. Tests read the embedded
// maintainer's content and counters.
type Probe struct {
	*ivm.Maintainer
	db *storage.DB
}

// NewProbe builds the view's maintainer over db's current rows. Apply
// writes db's tables, so calibration runs on a scratch copy.
func NewProbe(db *storage.DB, query string) (*Probe, error) {
	m, err := ivm.New(db, query)
	if err != nil {
		return nil, err
	}
	return &Probe{Maintainer: m, db: db}, nil
}

// Apply makes one modification, addressed to a FROM alias, live through
// the broker's own writer and queues its arrival.
func (p *Probe) Apply(mod ivm.Mod) error {
	for _, s := range p.Plan().Sources {
		if s.Alias == mod.Alias {
			if err := ivm.ApplyLive(p.db, s.Table, mod, true); err != nil {
				return err
			}
			return p.ApplyDeferred(mod)
		}
	}
	return fmt.Errorf("pubsub: probe: unknown alias %q", mod.Alias)
}

// Drain processes the alias's earliest k queued modifications and returns
// the work units that one drain counted — the paper's f_i(k) before
// weighting.
func (p *Probe) Drain(alias string, k int) (storage.Stats, error) {
	before := *p.Stats()
	if err := p.ProcessBatch(alias, k); err != nil {
		return storage.Stats{}, err
	}
	return p.Stats().Sub(before), nil
}
