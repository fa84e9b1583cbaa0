package bench

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/replication"
)

// TestClassifiedTaxonomy pins the soaks' shared error taxonomy, wrapped
// the way the runtime and the coordinator wrap them.
func TestClassifiedTaxonomy(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("core: Ledger/L1 failed: %w", err) }
	for _, err := range []error{
		wrap(replication.ErrQuorum),
		wrap(fmt.Errorf("%w: silo-2", replication.ErrRebuilding)),
		wrap(core.ErrActorPanic),
		wrap(faults.ErrInjectedKVWrite),
		wrap(core.ErrStaleActivation),
		context.DeadlineExceeded,
		context.Canceled,
	} {
		if !classified(err) {
			t.Errorf("%v not classified", err)
		}
	}
	for _, err := range []error{errors.New("ledger: unknown message"), core.ErrUnknownKind} {
		if classified(err) {
			t.Errorf("%v classified", err)
		}
	}
}
