package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// This file generates deterministic update streams for the streaming
// cleaning layer (internal/clean's NewStream): sequences of upserts and
// deletes against a generated Instance, with the same HOSP world model and
// error injection as Generate, so replayed updates exercise exactly the
// rule set the base instance was built for.

// Update is one streaming operation against an Instance's data relation.
type Update struct {
	// Delete tombstones tuple ID; Values/Conf are nil.
	Delete bool
	// ID is the target tuple: an existing id to overwrite or delete, or
	// the current relation length to append.
	ID int
	// Values and Conf are the upserted row, parallel to the data schema.
	Values []string
	Conf   []float64
}

// UpdateConfig shapes a generated update stream.
type UpdateConfig struct {
	// Updates is the stream length.
	Updates int
	// DeleteRate is the fraction of operations that tombstone a live
	// tuple; the rest are upserts.
	DeleteRate float64
	// AppendRate is the fraction of upserts that append a new tuple
	// instead of overwriting an existing id.
	AppendRate float64
	// HotGroupRate is the fraction of upserted rows forced into the
	// hottest zip (the one the constant CFDs target), concentrating
	// updates onto the same dependency groups.
	HotGroupRate float64
	// Seed drives the stream's private generator; the same (Instance,
	// UpdateConfig) always yields the same stream.
	Seed int64
}

// GenerateUpdates derives a deterministic update stream for inst. Every
// operation is valid at its position when replayed in order against
// inst.Data: deletes target live (never already-tombstoned) ids, appends
// use the exact next id, and rows match the schema arity. Upserted rows
// are drawn from the same clean world as Generate — a master provider plus
// the zip-determined city/state — then damaged at the instance's error
// rate, so a replayed stream keeps the cleaner busy without drifting from
// the generated rule set.
func GenerateUpdates(inst *Instance, cfg UpdateConfig) []Update {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gcfg := inst.Config

	// Recompute the clean-world formulas of Generate.
	nZip := gcfg.Tuples / 50
	if nZip < 8 {
		nZip = 8
	}
	nCity := nZip / 4
	if nCity < 4 {
		nCity = 4
	}
	city := func(z int) string { return fmt.Sprintf("city-%03d", z%nCity) }
	state := func(z int) string { return fmt.Sprintf("ST%02d", z%50) }

	arity := inst.Data.Schema.Arity()
	dirtiable := inst.Data.Schema.MustIndexAll("name", "phone", "zip", "city", "state")

	live := make([]bool, inst.Data.Len())
	for i := range live {
		live[i] = true
	}
	nLive := len(live)

	row := func() ([]string, []float64) {
		p := rng.Intn(inst.Master.Len())
		mt := inst.Master.Tuples[p]
		z := rng.Intn(nZip)
		if cfg.HotGroupRate > 0 && rng.Float64() < cfg.HotGroupRate {
			z = 0
		}
		vals := []string{
			mt.Values[0], // provider
			mt.Values[1], // name
			mt.Values[2], // phone
			fmt.Sprintf("z%05d", z),
			city(z),
			state(z),
		}
		conf := make([]float64, arity)
		for a := range conf {
			conf[a] = gcfg.Conf
		}
		for _, a := range dirtiable {
			if rng.Float64() >= gcfg.ErrorRate {
				continue
			}
			switch inst.Data.Schema.Attrs[a] {
			case "zip":
				vals[a] = fmt.Sprintf("z%05d", rng.Intn(nZip))
			case "city":
				vals[a] = city(rng.Intn(nCity))
			case "state":
				vals[a] = state(rng.Intn(50))
			default:
				vals[a] += fmt.Sprintf("~%d", rng.Intn(10))
			}
			if rng.Float64() >= gcfg.StubbornRate {
				conf[a] = gcfg.DirtyConf
			}
		}
		return vals, conf
	}

	out := make([]Update, 0, cfg.Updates)
	for len(out) < cfg.Updates {
		if nLive > 0 && rng.Float64() < cfg.DeleteRate {
			// Pick a live id uniformly by rejection; live tuples dominate
			// in every realistic stream, so this terminates fast.
			id := rng.Intn(len(live))
			for !live[id] {
				id = rng.Intn(len(live))
			}
			live[id] = false
			nLive--
			out = append(out, Update{Delete: true, ID: id})
			continue
		}
		vals, conf := row()
		id := len(live)
		if rng.Float64() >= cfg.AppendRate && len(live) > 0 {
			id = rng.Intn(len(live))
			if !live[id] {
				live[id] = true // resurrecting a tombstone is a legal upsert
				nLive++
			}
		} else {
			live = append(live, true)
			nLive++
		}
		out = append(out, Update{ID: id, Values: vals, Conf: conf})
	}
	return out
}

// Apply replays u against d, mirroring the update semantics of the
// streaming engine: overwrite or append for upserts, all-cells-to-Null
// tombstoning for deletes. It is the from-scratch oracle's way of building
// the final base instance without a streaming engine.
func (u Update) Apply(d *relation.Relation) {
	if u.Delete {
		t := d.Tuples[u.ID]
		for a := 0; a < d.Schema.Arity(); a++ {
			t.Set(a, relation.Null, 0, relation.FixNone)
		}
		return
	}
	if u.ID == d.Len() {
		t := d.Append(u.Values...)
		copy(t.Conf, u.Conf)
		return
	}
	t := d.Tuples[u.ID]
	for a := 0; a < d.Schema.Arity(); a++ {
		c := 0.0
		if u.Conf != nil {
			c = u.Conf[a]
		}
		t.Set(a, u.Values[a], c, relation.FixNone)
	}
}
