// Package gen builds synthetic dirty instances shaped like the paper's
// Section 7 experiments on the HOSP (hospital) data: a consistent clean
// world is derived deterministically from a seed, master records are drawn
// from it, and cell errors are injected at a configurable rate. The
// generator exists so performance numbers are measured on a reproducible
// workload whose size, dirtiness and rule fanout are knobs, not on whatever
// CSV happens to be lying around.
//
// The schema is R(provider, name, phone, zip, city, state) with master
// M(provider, name, phone, zip). The rule set exercises all three rule
// kinds and both MD blocking indexes: variable CFDs zip -> city and
// zip -> state, RuleFanout constant CFDs pinning hot zip codes to their
// city, an equality-premise MD matching provider numbers against the master
// to repair name, phone and zip, and a similarity-only MD (edit distance on
// name, no equality clause) repairing phone — the workload that drives the
// suffix-array blocking and the blocked certification path. Master names are
// long random strings, pairwise far apart in edit distance, so the
// similarity premise matches a name only against its own (possibly typo'd)
// master record, never a neighbor's.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/cfd"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
)

// Config parameterizes one synthetic instance.
type Config struct {
	// Tuples is the data relation cardinality.
	Tuples int
	// MasterSize is the master relation cardinality (distinct providers).
	MasterSize int
	// ErrorRate is the per-cell probability of injecting an error into the
	// dirtiable attributes (name, phone, zip, city, state).
	ErrorRate float64
	// RuleFanout is the number of constant CFDs generated over hot zip
	// codes, controlling how many rules read the same attributes.
	RuleFanout int
	// Seed drives the RNG; equal configs generate identical instances.
	Seed int64
	// Conf is the confidence of undamaged cells. Default 0.9 — above the
	// default η, so deterministic repair has trusted premises to stand on.
	Conf float64
	// DirtyConf is the confidence of damaged cells. Default 0.3 — below η,
	// so the error is untrusted and repairable without conflicts.
	DirtyConf float64
	// StubbornRate is the fraction of damaged cells that keep confidence
	// Conf: trusted wrong values, which force conflicts into eRepair and
	// hRepair instead of being deterministically overwritten.
	StubbornRate float64
	// HotZipRate, when positive, is the probability that a master provider
	// is re-homed to zip 0 after its uniform draw: the adversarial skew
	// knob. At 0.5 half the providers — and with them roughly half the data
	// tuples — share a single zip, so the variable CFDs get one giant
	// LHS-equal group next to many tiny ones: the worst case for chunked
	// shard claiming and the workload the work-stealing sweep tests run.
	// Zero (the default) skips the skew draw entirely, leaving the RNG
	// stream — and therefore every previously committed instance and
	// baseline — bit-identical.
	HotZipRate float64
}

// DefaultConfig is the 10k-tuple / 5%-dirty configuration the benchmarks
// and the CI regression gate run.
func DefaultConfig() Config {
	return Config{
		Tuples:       10000,
		MasterSize:   1000,
		ErrorRate:    0.05,
		RuleFanout:   3,
		Seed:         1,
		Conf:         0.9,
		DirtyConf:    0.3,
		StubbornRate: 0.1,
	}
}

func (c Config) withDefaults() Config {
	if c.Tuples <= 0 {
		c.Tuples = 10000
	}
	if c.MasterSize <= 0 {
		c.MasterSize = 1000
	}
	if c.RuleFanout < 0 {
		c.RuleFanout = 0
	}
	if c.Conf == 0 {
		c.Conf = 0.9
	}
	if c.DirtyConf == 0 {
		c.DirtyConf = 0.3
	}
	return c
}

// Instance is one generated workload.
type Instance struct {
	Config Config
	Data   *relation.Relation
	Master *relation.Relation
	Rules  []rule.Rule
	// Dirtied is the number of cells the generator damaged.
	Dirtied int
	// Stubborn is the number of damaged cells left at full confidence.
	Stubborn int
}

// Generate builds a deterministic dirty instance from cfg.
func Generate(cfg Config) *Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	dschema := relation.NewSchema("hosp", "provider", "name", "phone", "zip", "city", "state")
	mschema := relation.NewSchema("master", "provider", "name", "phone", "zip")

	// The clean world: zip determines city and state; a provider determines
	// name, phone and zip.
	nZip := cfg.Tuples / 50
	if nZip < 8 {
		nZip = 8
	}
	nCity := nZip / 4
	if nCity < 4 {
		nCity = 4
	}
	zips := make([]string, nZip)
	zipCity := make([]string, nZip)
	zipState := make([]string, nZip)
	for z := range zips {
		zips[z] = fmt.Sprintf("z%05d", z)
		zipCity[z] = fmt.Sprintf("city-%03d", z%nCity)
		zipState[z] = fmt.Sprintf("ST%02d", z%50)
	}
	// Names are 12 random letters: two distinct names are then far beyond
	// any small edit threshold with overwhelming probability (sequential
	// name-%06d codes would sit at edit distance 1–2 from their neighbors
	// and make the similarity MD cross-match providers). Uniqueness is
	// enforced so the clean world satisfies the MD by construction.
	usedNames := make(map[string]bool, cfg.MasterSize)
	randName := func() string {
		for {
			b := []byte("nm-............")
			for k := 3; k < len(b); k++ {
				b[k] = byte('a' + rng.Intn(26))
			}
			if n := string(b); !usedNames[n] {
				usedNames[n] = true
				return n
			}
		}
	}
	provZip := make([]int, cfg.MasterSize)
	master := relation.New(mschema)
	for p := 0; p < cfg.MasterSize; p++ {
		z := rng.Intn(nZip)
		if cfg.HotZipRate > 0 && rng.Float64() < cfg.HotZipRate {
			z = 0
		}
		provZip[p] = z
		master.Append(
			fmt.Sprintf("prov-%06d", p),
			randName(),
			fmt.Sprintf("555-%07d", p),
			zips[provZip[p]],
		)
	}
	master.SetAllConf(1)

	inst := &Instance{Config: cfg, Master: master}
	data := relation.New(dschema)
	for i := 0; i < cfg.Tuples; i++ {
		p := rng.Intn(cfg.MasterSize)
		z := provZip[p]
		data.Append(
			master.Tuples[p].Values[0],
			master.Tuples[p].Values[1],
			master.Tuples[p].Values[2],
			zips[z],
			zipCity[z],
			zipState[z],
		)
	}
	data.SetAllConf(cfg.Conf)

	// Error injection over the repairable attributes. A damaged value is
	// swapped within its domain (zip/city/state) or typo'd (name/phone), so
	// the rules have both plausible and implausible dirt to untangle.
	dirtiable := dschema.MustIndexAll("name", "phone", "zip", "city", "state")
	for _, t := range data.Tuples {
		for _, a := range dirtiable {
			if rng.Float64() >= cfg.ErrorRate {
				continue
			}
			switch dschema.Attrs[a] {
			case "zip":
				t.Values[a] = zips[rng.Intn(nZip)]
			case "city":
				t.Values[a] = fmt.Sprintf("city-%03d", rng.Intn(nCity))
			case "state":
				t.Values[a] = fmt.Sprintf("ST%02d", rng.Intn(50))
			default:
				t.Values[a] += fmt.Sprintf("~%d", rng.Intn(10))
			}
			inst.Dirtied++
			if rng.Float64() < cfg.StubbornRate {
				inst.Stubborn++ // keep cfg.Conf: a trusted wrong value
			} else {
				t.Conf[a] = cfg.DirtyConf
			}
		}
	}
	inst.Data = data

	// Rules: the zip FDs, RuleFanout constant CFDs over the hottest zips,
	// and the provider MD against the master.
	cfds := []*cfd.CFD{
		cfd.FD("fd_zip_city", dschema, []string{"zip"}, "city"),
		cfd.FD("fd_zip_state", dschema, []string{"zip"}, "state"),
	}
	for k := 0; k < cfg.RuleFanout; k++ {
		z := k % nZip
		cfds = append(cfds, cfd.New(fmt.Sprintf("cfd_hot_zip_%d", k), dschema,
			[]string{"zip"}, []string{zips[z]}, "city", zipCity[z]))
	}
	m := md.New("md_provider", dschema, mschema,
		[]md.ClauseSpec{md.Eq("provider", "provider")},
		[]md.PairSpec{
			{Data: "name", Master: "name"},
			{Data: "phone", Master: "phone"},
			{Data: "zip", Master: "zip"},
		})
	// The similarity-only MD has no equality clause, so it matches and
	// certifies through the generalized suffix array: a typo'd name (two
	// appended characters, edit distance 2) still reaches its own master
	// record, while distinct random names stay unmatched.
	sim := md.New("md_name_sim", dschema, mschema,
		[]md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(2))},
		[]md.PairSpec{{Data: "phone", Master: "phone"}})
	inst.Rules = rule.Derive(cfds, append(m.Normalize(), sim))
	return inst
}
