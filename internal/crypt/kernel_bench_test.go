package crypt

import "testing"

// sinkCell keeps benchmarked results live.
var sinkCell string

// BenchmarkKernel measures one kernel sealing an instance cell and
// opening it again, for both PRFs: the per-cell cost under every
// encryption and decryption loop.
func BenchmarkKernel(b *testing.B) {
	for _, prf := range []PRF{PRFAESCTR, PRFHMAC} {
		c, err := NewProbCipher(testKey(), prf)
		if err != nil {
			b.Fatal(err)
		}
		k := c.NewKernel()
		k.Tweak = append(k.Tweak[:0], "mas:{A1}|attr:1|rep:1996-03-14"...)
		ct := k.SealInstance("1996-03-14", 0) // also sizes the kernel's buffers
		b.Run(prf.String()+"/seal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCell = k.SealInstance("1996-03-14", uint64(i&1))
			}
		})
		b.Run(prf.String()+"/open", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := k.Open(ct)
				if err != nil {
					b.Fatal(err)
				}
				sinkCell = p
			}
		})
	}
}
