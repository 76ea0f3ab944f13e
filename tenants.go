package dosas

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dosas/internal/pfs"
	"dosas/internal/tenant"
)

// TenantUsage is one tenant's cumulative resource consumption on one
// node (or, after MergeTenantUsage, across the cluster): bytes moved,
// ops by type, kernel CPU, queue wait, bounces and interrupts, plus the
// live queued/inflight gauges.
type TenantUsage = tenant.Usage

// TenantEvicted is the pseudo-tenant row aggregating every tenant
// LRU-evicted from a node's bounded table, so totals stay conserved.
const TenantEvicted = tenant.Evicted

// TenantReport is one storage node's tenant-table snapshot: its usage
// rows plus how many tenants overflowed into the TenantEvicted row.
type TenantReport struct {
	Node    string        `json:"node"`
	Evicted uint64        `json:"evicted,omitempty"`
	Usage   []TenantUsage `json:"usage"`
}

// tenantsOf collects every node's tenant table, in sweep order.
func tenantsOf(n nodes) ([]TenantReport, error) {
	answers, err := pfs.Sweep(n.pool, n.targets, pfs.InspectTenants, pfs.NoArgs{})
	var out []TenantReport
	for _, a := range pfs.Live(answers) {
		out = append(out, TenantReport{Node: a.Node, Evicted: a.Body.Evicted, Usage: a.Body.Usage})
	}
	return out, err
}

// Tenants returns every storage node's tenant attribution snapshot,
// in layout order. Empty when the cluster was started with
// Options.DisableTenants.
func (c *Cluster) Tenants() []TenantReport {
	out, _ := tenantsOf(c.nodes())
	return out
}

// Tenants fetches every storage node's tenant attribution snapshot over
// the wire, in sweep order. Unreachable nodes and nodes without a
// tenant table are skipped; failed answers are reported.
func (fs *FS) Tenants() ([]TenantReport, error) { return tenantsOf(fs.nodes()) }

// MergeTenantUsage folds per-node reports into one cluster-wide row per
// tenant, sorted by tenant name.
func MergeTenantUsage(reports []TenantReport) []TenantUsage {
	sets := make([][]TenantUsage, 0, len(reports))
	for _, r := range reports {
		sets = append(sets, r.Usage)
	}
	return tenant.Merge(sets...)
}

// SortTenantUsage orders rows by the given key: "bytes" (total bytes
// moved, descending), "cpu" (kernel nanoseconds, descending), "wait"
// (queue-wait nanoseconds, descending), or anything else for tenant
// name ascending. Ties break by tenant name so output is deterministic.
func SortTenantUsage(rows []TenantUsage, key string) {
	metric := func(u TenantUsage) uint64 {
		switch key {
		case "bytes":
			return u.BytesRead + u.BytesWritten
		case "cpu":
			return u.KernelNanos
		case "wait":
			return u.QueueWaitNanos
		}
		return 0
	}
	sort.SliceStable(rows, func(i, j int) bool {
		mi, mj := metric(rows[i]), metric(rows[j])
		if mi != mj {
			return mi > mj
		}
		return rows[i].Tenant < rows[j].Tenant
	})
}

// FormatTenants renders usage rows as the aligned table dosasctl
// tenants prints: one row per tenant with bytes, op counts, kernel CPU,
// queue wait, and contention counters.
func FormatTenants(rows []TenantUsage) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %10s %10s %7s %7s %7s %10s %10s %7s %7s %6s %6s\n",
		"TENANT", "READ", "WRITTEN", "RDOPS", "WROPS", "ACTIVE", "KERNEL", "WAIT", "BOUNCE", "INTR", "QUEUED", "INFL")
	for _, u := range rows {
		fmt.Fprintf(&sb, "%-20s %10s %10s %7d %7d %7d %10s %10s %7d %7d %6d %6d\n",
			u.Tenant,
			formatBytes(u.BytesRead), formatBytes(u.BytesWritten),
			u.ReadOps, u.WriteOps+u.TruncOps, u.ActiveOps+u.TransformOps,
			formatNanos(u.KernelNanos), formatNanos(u.QueueWaitNanos),
			u.Bounces, u.Interrupts, u.Queued, u.Inflight)
	}
	return sb.String()
}

// formatBytes renders a byte count with a binary-unit suffix, compact
// enough for fixed columns.
func formatBytes(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(b)/float64(div), "KMGTPE"[exp])
}

// formatNanos renders a cumulative nanosecond count as a rounded
// duration.
func formatNanos(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
