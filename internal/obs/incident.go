package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Incident is one captured flight-recorder event: a stalled flush job, a
// wedged WAL committer, or a slow request past the retention threshold.
// It bundles everything an engineer needs after the fact — what fired,
// the runtime state at capture time, the open span trees of every
// in-flight trace, and a full goroutine dump.
type Incident struct {
	Time       time.Time        `json:"time"`
	Kind       string           `json:"kind"` // "flush_stall", "wal_stall", "slow_request"
	Reason     string           `json:"reason"`
	Detail     map[string]any   `json:"detail,omitempty"`
	Runtime    *RuntimeSample   `json:"runtime,omitempty"`
	OpenTraces []*TraceSnapshot `json:"openTraces,omitempty"`
	Goroutines string           `json:"goroutines,omitempty"`
}

// IncidentRing persists incidents as JSON files in a bounded on-disk
// ring (default: 64 files / 32 MiB under <data-dir>/incidents). Bounded
// by design: a flapping stall must age out old incidents, not fill the
// disk the service's WAL needs.
type IncidentRing struct {
	ring *fileRing
}

// NewIncidentRing opens (creating) the ring directory.
func NewIncidentRing(dir string, maxFiles int, maxBytes int64) (*IncidentRing, error) {
	ring, err := newFileRing(dir, maxFiles, maxBytes)
	if err != nil {
		return nil, err
	}
	return &IncidentRing{ring: ring}, nil
}

// Write persists one incident, pruning the ring, and returns the file
// name it landed under.
func (r *IncidentRing) Write(inc *Incident) (string, error) {
	if inc.Time.IsZero() {
		inc.Time = time.Now().UTC()
	}
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: encoding incident: %w", err)
	}
	return r.ring.write(inc.Time, sanitizeTag(inc.Kind), "json", data)
}

// List returns the retained incidents, oldest first.
func (r *IncidentRing) List() ([]RingFile, error) { return r.ring.list() }

// Read fetches one incident file by its listed name.
func (r *IncidentRing) Read(name string) ([]byte, error) { return r.ring.read(name) }

// sanitizeTag forces a kind into a file-name-safe token.
func sanitizeTag(kind string) string {
	if kind == "" {
		return "incident"
	}
	var b strings.Builder
	b.Grow(len(kind))
	for _, c := range kind {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
