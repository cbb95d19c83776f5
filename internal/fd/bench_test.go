package fd

import (
	"testing"

	"f2/internal/workload"
)

// BenchmarkDiscoverWitnessedEncrypted runs witnessed TANE on the
// ciphertext of a 600-row customer table: the provider's side of the
// paper's Fig. 10 and the work behind GET /v1/datasets/{id}/fds.
func BenchmarkDiscoverWitnessedEncrypted(b *testing.B) {
	enc := encryptedTable(b, workload.NameCustomer, 600, 1, "f2bench-1")
	b.ReportAllocs()
	for b.Loop() {
		DiscoverWitnessed(enc)
	}
}
