package obs

import "sync"

// HealthStatus is a component's self-reported condition. Statuses order
// ok < degraded < failing; an aggregate report is the worst of its
// components.
type HealthStatus string

const (
	HealthOK       HealthStatus = "ok"
	HealthDegraded HealthStatus = "degraded"
	HealthFailing  HealthStatus = "failing"
)

// rank orders statuses for aggregation; unknown strings rank worst so a
// typo in a component can never make the aggregate look healthy.
func (s HealthStatus) rank() int {
	switch s {
	case HealthOK:
		return 0
	case HealthDegraded:
		return 1
	case HealthFailing:
		return 2
	}
	return 3
}

// Worse returns the worse of two statuses.
func (s HealthStatus) Worse(o HealthStatus) HealthStatus {
	if o.rank() > s.rank() {
		return o
	}
	return s
}

// ComponentHealth is one subsystem's self-report: a status plus
// free-form detail (queue depths, ages, watermarks) for the debug view.
type ComponentHealth struct {
	Status HealthStatus   `json:"status"`
	Detail map[string]any `json:"detail,omitempty"`
}

// HealthReport aggregates every registered component.
type HealthReport struct {
	Status     HealthStatus               `json:"status"`
	Components map[string]ComponentHealth `json:"components"`
}

// HealthRegistry collects component health callbacks. Components
// register once at wiring time; Report snapshots the callback set under
// the registry lock but CALLS the callbacks unlocked — the callbacks
// read live state owned by other subsystems, and invoking foreign code
// under h.mu is the same lock-inversion hazard Metrics.Render avoids
// (and the lockheld analyzer's healthreg class flags the converse:
// registering while holding a subsystem lock).
type HealthRegistry struct {
	mu     sync.Mutex
	checks map[string]func() ComponentHealth
}

// NewHealthRegistry returns an empty registry.
func NewHealthRegistry() *HealthRegistry {
	return &HealthRegistry{checks: make(map[string]func() ComponentHealth)}
}

// Register adds (or replaces) a named component callback. The callback
// must be cheap, must not block on pipeline locks (use cached summaries
// and atomics), and may be invoked concurrently with itself.
func (h *HealthRegistry) Register(name string, fn func() ComponentHealth) {
	h.mu.Lock()
	h.checks[name] = fn
	h.mu.Unlock()
}

// Check runs one component's callback; ok is false when no component
// of that name is registered.
func (h *HealthRegistry) Check(name string) (ComponentHealth, bool) {
	h.mu.Lock()
	fn, ok := h.checks[name]
	h.mu.Unlock()
	if !ok {
		return ComponentHealth{}, false
	}
	return fn(), true
}

// Report runs every registered callback and aggregates the result: the
// report status is the worst component status, ok when nothing is
// registered.
func (h *HealthRegistry) Report() HealthReport {
	h.mu.Lock()
	checks := make(map[string]func() ComponentHealth, len(h.checks))
	for n, fn := range h.checks {
		checks[n] = fn
	}
	h.mu.Unlock()
	rep := HealthReport{Status: HealthOK, Components: make(map[string]ComponentHealth, len(checks))}
	for n, fn := range checks {
		c := fn()
		if c.Status == "" {
			c.Status = HealthOK
		}
		rep.Components[n] = c
		rep.Status = rep.Status.Worse(c.Status)
	}
	return rep
}
