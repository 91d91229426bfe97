package netem

import (
	"fmt"
	"strings"
	"time"

	"gridrep/internal/wire"
)

// Extra classes used by the WAN profile: the leader's site versus the
// other replica sites, because in the paper's third configuration the
// client→replica latency differs per site.
const (
	ClassLeaderSite Class = 2
	ClassRemoteSite Class = 3
)

// ClassRegionBase is the first class used by the modernized geo-spread
// profiles (wan3/wan5): region r maps to class ClassRegionBase+r, and
// clients share their region's class — a client and the replica in its
// region sit in the same data center.
const ClassRegionBase Class = 4

// Profile names one of the evaluation network configurations (§4), or
// one of the modernized cross-continent spreads (DESIGN.md §16).
type Profile struct {
	// Name identifies the profile ("sysnet", "b2p", "wan", "wan3",
	// "wan5", "loopback").
	Name string
	// ClassOf maps nodes to link classes; nil means the default
	// replica/client split.
	ClassOf func(wire.NodeID) Class
	// Configure installs the profile's link latencies into a model.
	Configure func(*Model)
	// MaxOneWay is an upper bound on one-way delay — including the
	// jitter and tail terms, so Ω timeouts derived from it are not
	// false-triggered by heavy-tail samples (the timeout-derivation
	// contract is pinned by cluster.TestProfileTimeoutDerivation).
	MaxOneWay time.Duration
	// Regions and RegionOf describe the profile's geography when it has
	// one (wan3/wan5): RegionOf maps any node — replica or client — to
	// its region index in [0, Regions). Regions is 0 for the classic
	// single-geometry profiles.
	Regions  int
	RegionOf func(wire.NodeID) int
}

// NewModel builds a configured network model for the profile.
func (p Profile) NewModel(seed int64) *Model {
	m := NewModel(seed, p.ClassOf)
	p.Configure(m)
	return m
}

// Sysnet models the paper's local cluster: Pentium IV machines on a
// Gigabit Ethernet. Calibrated from the measured response times
// (original 0.181 ms = 2M+E, write 0.338 ms = 2M+E+2m, read 0.263 ms =
// 2M+max(E,m)): one-way client↔replica M ≈ 88 µs, replica↔replica
// m ≈ 78 µs, with a few microseconds of jitter.
func Sysnet() Profile {
	return Profile{
		Name:      "sysnet",
		MaxOneWay: 150 * time.Microsecond,
		Configure: func(m *Model) {
			cr := Latency{Base: 84 * time.Microsecond, Jitter: 8 * time.Microsecond}
			rr := Latency{Base: 74 * time.Microsecond, Jitter: 8 * time.Microsecond}
			m.SetLinkSym(ClassClient, ClassReplica, cr)
			m.SetLinkSym(ClassReplica, ClassReplica, rr)
			m.SetLinkSym(ClassClient, ClassClient, cr)
		},
	}
}

// B2P models the paper's second configuration: all replicas close
// together at Princeton, clients at Berkeley. Calibrated from the
// measured 91.85/92.79/93.13 ms RRTs: M ≈ 45.8 ms, m ≈ 0.45 ms.
func B2P() Profile {
	return Profile{
		Name:      "b2p",
		MaxOneWay: 50 * time.Millisecond,
		Configure: func(m *Model) {
			cr := Latency{Base: 45600 * time.Microsecond, Jitter: 400 * time.Microsecond,
				Tail: 3 * time.Millisecond, TailProb: 0.01}
			rr := Latency{Base: 400 * time.Microsecond, Jitter: 100 * time.Microsecond}
			m.SetLinkSym(ClassClient, ClassReplica, cr)
			m.SetLinkSym(ClassReplica, ClassReplica, rr)
			m.SetLinkSym(ClassClient, ClassClient, cr)
		},
	}
}

// WAN models the paper's third configuration: the leader replica at UIUC,
// backups at Utah and UT Austin, clients at Berkeley and Intel Oregon.
// Calibrated from the measured 70.82/75.49/106.73 ms RRTs:
// client→leader-site ≈ 35.2 ms, client→backup-site ≈ 21.8 ms,
// replica↔replica ≈ 17.8 ms. The asymmetry (clients closer to the backup
// sites than to the leader) is what makes the X-Paxos confirm path nearly
// free in this configuration.
//
// leaderNode is the replica hosted at the leader site (the paper pinned
// the leader at UIUC; with the shipped Ω election, replica 0 stays leader
// while alive, so pass 0).
func WAN(leaderNode wire.NodeID) Profile {
	classOf := func(id wire.NodeID) Class {
		switch {
		case id.IsClient():
			return ClassClient
		case id == leaderNode:
			return ClassLeaderSite
		default:
			return ClassRemoteSite
		}
	}
	return Profile{
		Name:      "wan",
		ClassOf:   classOf,
		MaxOneWay: 45 * time.Millisecond,
		Configure: func(m *Model) {
			cl := Latency{Base: 35 * time.Millisecond, Jitter: 400 * time.Microsecond,
				Tail: 4 * time.Millisecond, TailProb: 0.02}
			cb := Latency{Base: 21600 * time.Microsecond, Jitter: 400 * time.Microsecond,
				Tail: 4 * time.Millisecond, TailProb: 0.02}
			rr := Latency{Base: 17600 * time.Microsecond, Jitter: 300 * time.Microsecond,
				Tail: 3 * time.Millisecond, TailProb: 0.01}
			m.SetLinkSym(ClassClient, ClassLeaderSite, cl)
			m.SetLinkSym(ClassClient, ClassRemoteSite, cb)
			m.SetLinkSym(ClassLeaderSite, ClassRemoteSite, rr)
			m.SetLinkSym(ClassRemoteSite, ClassRemoteSite, rr)
			m.SetLinkSym(ClassClient, ClassClient, cb)
		},
	}
}

// Loopback is a near-zero-latency profile for unit and integration tests
// where wall-clock time should not matter.
func Loopback() Profile {
	return Profile{
		Name:      "loopback",
		MaxOneWay: time.Millisecond,
		Configure: func(m *Model) {
			l := Latency{Base: 20 * time.Microsecond, Jitter: 20 * time.Microsecond}
			for a := Class(0); a < 2; a++ {
				for b := Class(0); b < 2; b++ {
					m.SetLink(a, b, l)
				}
			}
		},
	}
}

// wanRegions is the one-way base latency matrix (row = source region,
// column = destination region) for the modernized geo spreads,
// calibrated from present-day inter-region cloud measurements. The five
// regions are us-east, eu-west, ap-southeast, us-west, sa-east; wan3
// uses the first three. The matrix is deliberately asymmetric — routes
// differ per direction on real backbones — and every cross-region link
// gets jitter plus a heavy tail (cf. the PlanetLab delivery-time
// variance of §4.3).
var wanOneWayMS = [5][5]float64{
	{0.3, 37, 105, 30, 58},
	{40, 0.3, 88, 65, 92},
	{112, 92, 0.3, 85, 160},
	{32, 68, 89, 0.3, 90},
	{62, 95, 168, 93, 0.3},
}

// wanSpread builds an n-region cross-continent profile. Replica r lives
// in region r mod n; client c (IDs from wire.ClientIDBase) lives in
// region c mod n, co-located with that region's replica. scale
// multiplies every latency — tests compress a 200 ms geography into a
// few milliseconds without changing its shape.
func wanSpread(name string, n int, scale float64) Profile {
	regionOf := func(id wire.NodeID) int {
		if id.IsClient() {
			return int(id-wire.ClientIDBase) % n
		}
		return int(id) % n
	}
	classOf := func(id wire.NodeID) Class {
		return ClassRegionBase + Class(regionOf(id))
	}
	at := func(ms float64) time.Duration {
		return time.Duration(ms * scale * float64(time.Millisecond))
	}
	var maxOneWay time.Duration
	lat := func(a, b int) Latency {
		if a == b {
			return Latency{Base: at(wanOneWayMS[a][b]), Jitter: at(0.2)}
		}
		return Latency{
			Base:     at(wanOneWayMS[a][b]),
			Jitter:   at(2),
			Tail:     at(40),
			TailProb: 0.04,
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			l := lat(a, b)
			if w := l.Base + l.Jitter + l.Tail; w > maxOneWay {
				maxOneWay = w
			}
		}
	}
	return Profile{
		Name:      name,
		ClassOf:   classOf,
		Regions:   n,
		RegionOf:  regionOf,
		MaxOneWay: maxOneWay,
		Configure: func(m *Model) {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					m.SetLink(ClassRegionBase+Class(a), ClassRegionBase+Class(b), lat(a, b))
				}
			}
		},
	}
}

// WAN3 is a modernized three-continent spread (us-east, eu-west,
// ap-southeast): one replica and one client fleet per region, asymmetric
// per-link latency, jittery heavy tails.
func WAN3() Profile { return wanSpread("wan3", 3, 1) }

// WAN5 extends WAN3 with us-west and sa-east for five regions.
func WAN5() Profile { return wanSpread("wan5", 5, 1) }

// WAN3Scaled / WAN5Scaled return the same topologies with every latency
// multiplied by scale, so tests can run the real geometry in compressed
// time.
func WAN3Scaled(scale float64) Profile { return wanSpread("wan3", 3, scale) }

// WAN5Scaled is WAN3Scaled for the five-region spread.
func WAN5Scaled(scale float64) Profile { return wanSpread("wan5", 5, scale) }

// ProfileNames lists every name ProfileByName accepts.
func ProfileNames() []string {
	return []string{"sysnet", "b2p", "wan", "wan3", "wan5", "loopback"}
}

// ProfileByName returns the named profile, defaulting the WAN leader site
// to replica 0. Unknown names are an error listing the valid ones — a
// typoed -profile flag must fail fast, not run on an unconfigured
// zero-latency network.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "sysnet":
		return Sysnet(), nil
	case "b2p":
		return B2P(), nil
	case "wan":
		return WAN(0), nil
	case "wan3":
		return WAN3(), nil
	case "wan5":
		return WAN5(), nil
	case "loopback":
		return Loopback(), nil
	default:
		return Profile{}, fmt.Errorf("netem: unknown profile %q (valid: %s)",
			name, strings.Join(ProfileNames(), ", "))
	}
}
