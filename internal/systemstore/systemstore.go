// Package systemstore implements the cluster system tables — the analog of
// the Amazon RDS instance the paper uses for "Orleans system storage, which
// keeps track of silo instances, reminders, and general system state".
//
// Silo membership is gossiped (internal/gossip), so the one table kept
// here is the reminder table: persistent timers that must fire even when
// their target actor is not activated. Rows are JSON-encoded on the
// kvstore.
package systemstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
)

// Reminder is a persistent timer registration. The runtime re-activates
// Target and delivers a reminder message every Period, starting at NextDue.
type Reminder struct {
	Target  string // canonical actor id, e.g. "Aggregator/org-3/day"
	Name    string
	Period  time.Duration
	NextDue time.Time
}

func reminderKey(target, name string) string { return target + "|" + name }

// Store provides reminder persistence.
type Store struct {
	reminders *kvstore.Table
	clk       clock.Clock
}

// New creates (or reopens) the reminder table inside kv.
func New(kv *kvstore.Store, clk clock.Clock) (*Store, error) {
	if clk == nil {
		clk = clock.Real()
	}
	reminders, err := kv.EnsureTable("system.reminders", kvstore.Throughput{})
	if err != nil {
		return nil, err
	}
	return &Store{reminders: reminders, clk: clk}, nil
}

// RegisterReminder persists (or replaces) a reminder.
func (s *Store) RegisterReminder(ctx context.Context, r Reminder) error {
	if r.Target == "" || r.Name == "" {
		return errors.New("systemstore: reminder needs target and name")
	}
	if r.Period <= 0 {
		return errors.New("systemstore: reminder period must be positive")
	}
	if r.NextDue.IsZero() {
		r.NextDue = s.clk.Now().Add(r.Period)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = s.reminders.Put(ctx, reminderKey(r.Target, r.Name), data)
	return err
}

// UnregisterReminder removes a reminder. Removing a missing reminder is
// not an error.
func (s *Store) UnregisterReminder(ctx context.Context, target, name string) error {
	return s.reminders.Delete(ctx, reminderKey(target, name))
}

// RemindersFor returns the reminders registered for one actor.
func (s *Store) RemindersFor(ctx context.Context, target string) ([]Reminder, error) {
	return s.scanReminders(ctx, target+"|", time.Time{})
}

// Due returns every reminder whose NextDue is at or before now.
func (s *Store) Due(ctx context.Context, now time.Time) ([]Reminder, error) {
	return s.scanReminders(ctx, "", now)
}

func (s *Store) scanReminders(ctx context.Context, prefix string, dueBy time.Time) ([]Reminder, error) {
	var out []Reminder
	var decodeErr error
	err := s.reminders.Scan(ctx, prefix, func(it kvstore.Item) bool {
		var r Reminder
		if err := json.Unmarshal(it.Value, &r); err != nil {
			decodeErr = fmt.Errorf("systemstore: corrupt reminder row %q: %w", it.Key, err)
			return false
		}
		if dueBy.IsZero() || !r.NextDue.After(dueBy) {
			out = append(out, r)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decodeErr
}

// Advance moves a fired reminder's NextDue forward past now by whole
// periods, persisting the change.
func (s *Store) Advance(ctx context.Context, r Reminder, now time.Time) (Reminder, error) {
	for !r.NextDue.After(now) {
		r.NextDue = r.NextDue.Add(r.Period)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return Reminder{}, err
	}
	if _, err := s.reminders.Put(ctx, reminderKey(r.Target, r.Name), data); err != nil {
		return Reminder{}, err
	}
	return r, nil
}
