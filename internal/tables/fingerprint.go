package tables

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Fingerprint identifies the host a measurement ran on. Every
// experiment-grid cell and every mplgo-load report is stamped with one, so a reviewer — or
// the CI gate — can tell whether two reports are comparable at all before
// arguing about a 10–30% drift between them. Matches deliberately compares
// only the stable hardware/toolchain fields; load average and commit are
// context, not identity.
type Fingerprint struct {
	Cores      int    `json:"cores"`      // runtime.NumCPU at capture time
	GOMAXPROCS int    `json:"gomaxprocs"` // effective Go parallelism cap
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Hostname   string `json:"hostname,omitempty"`
	Commit     string `json:"commit,omitempty"`      // git HEAD, best effort
	LoadAvg1M  string `json:"load_avg_1m,omitempty"` // 1-minute load average, best effort
}

// CurrentFingerprint captures the host running this process. The commit
// and load-average fields are best-effort (empty outside a git checkout or
// on systems without /proc/loadavg) and never affect Matches.
func CurrentFingerprint() *Fingerprint {
	f := &Fingerprint{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if h, err := os.Hostname(); err == nil {
		f.Hostname = h
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			f.LoadAvg1M = fields[0]
		}
	}
	return f
}

// Matches reports whether two fingerprints describe comparable
// measurement hosts: same core count, same GOMAXPROCS, same toolchain,
// same OS/architecture. Nil on either side never matches — a report
// without a fingerprint (pre-stamping baselines) cannot be trusted to
// come from this machine.
func (f *Fingerprint) Matches(other *Fingerprint) bool {
	if f == nil || other == nil {
		return false
	}
	return f.Cores == other.Cores &&
		f.GOMAXPROCS == other.GOMAXPROCS &&
		f.GoVersion == other.GoVersion &&
		f.OS == other.OS &&
		f.Arch == other.Arch
}

// EffectiveProcs caps a requested worker count at the hardware parallelism
// this fingerprint describes: scheduling P workers onto fewer cores is a
// legitimate oversubscription experiment, but Brent's bound — and any
// speedup prediction — must be stated at min(P, cores).
func (f *Fingerprint) EffectiveProcs(p int) int {
	if f == nil || f.Cores <= 0 || p <= f.Cores {
		if p < 1 {
			return 1
		}
		return p
	}
	return f.Cores
}

func (f *Fingerprint) String() string {
	if f == nil {
		return "<no fingerprint>"
	}
	s := fmt.Sprintf("%d cores, GOMAXPROCS=%d, %s %s/%s",
		f.Cores, f.GOMAXPROCS, f.GoVersion, f.OS, f.Arch)
	if f.LoadAvg1M != "" {
		s += ", load " + f.LoadAvg1M
	}
	if f.Commit != "" {
		s += ", @" + f.Commit
	}
	return s
}

// ParseLoadAvg returns the numeric 1-minute load average, 0 if unset or
// malformed (the field is informational either way).
func (f *Fingerprint) ParseLoadAvg() float64 {
	if f == nil || f.LoadAvg1M == "" {
		return 0
	}
	v, err := strconv.ParseFloat(f.LoadAvg1M, 64)
	if err != nil {
		return 0
	}
	return v
}
