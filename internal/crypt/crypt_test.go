package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"io"
	"math/big"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func testKey() Key { return KeyFromSeed("crypt-test-key") }

func TestGenerateKeyDistinct(t *testing.T) {
	k1, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	k2, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	if k1 == k2 {
		t.Fatal("two generated keys are equal")
	}
}

func TestProbCipherRoundTrip(t *testing.T) {
	for _, prf := range []PRF{PRFAESCTR, PRFHMAC} {
		c, err := NewProbCipher(testKey(), prf)
		if err != nil {
			t.Fatalf("NewProbCipher(%v): %v", prf, err)
		}
		for _, plain := range []string{"", "x", "hello world", strings.Repeat("long", 100), "unicode £€", "\x00\x01\xff"} {
			ct, err := c.EncryptCell(plain)
			if err != nil {
				t.Fatalf("EncryptCell: %v", err)
			}
			got, err := c.DecryptCell(ct)
			if err != nil {
				t.Fatalf("DecryptCell: %v", err)
			}
			if got != plain {
				t.Errorf("%v: round trip %q → %q", prf, plain, got)
			}
		}
	}
}

func TestProbCipherIsProbabilistic(t *testing.T) {
	c, _ := NewProbCipher(testKey(), PRFAESCTR)
	a, _ := c.EncryptCell("same")
	b, _ := c.EncryptCell("same")
	if a == b {
		t.Fatal("two probabilistic encryptions of the same value are equal")
	}
}

// sealInstance is Kernel.SealInstance under the given tweak.
func sealInstance(k *Kernel, tweak, plain string, instance uint64) string {
	k.Tweak = append(k.Tweak[:0], tweak...)
	return k.SealInstance(plain, instance)
}

func TestEncryptInstanceDeterministicPerTriple(t *testing.T) {
	c, _ := NewProbCipher(testKey(), PRFAESCTR)
	k := c.NewKernel()
	a := sealInstance(k, "tweak", "value", 0)
	// A second kernel of the same cipher must agree: the ciphertext is a
	// function of (key, tweak, value, instance) alone.
	if b := sealInstance(c.NewKernel(), "tweak", "value", 0); a != b {
		t.Fatal("same (tweak, value, instance) produced different ciphertexts")
	}
	if sealInstance(k, "tweak", "value", 1) == a {
		t.Fatal("different instance produced same ciphertext")
	}
	if sealInstance(k, "tweak2", "value", 0) == a {
		t.Fatal("different tweak produced same ciphertext")
	}
	if sealInstance(k, "tweak", "value2", 0) == a {
		t.Fatal("different value produced same ciphertext")
	}
	// Tweak/plain boundary ambiguity must not collide: ("ab","c") vs ("a","bc").
	if sealInstance(k, "ab", "c", 0) == sealInstance(k, "a", "bc", 0) {
		t.Fatal("length-prefixing failed: tweak/plain boundary collision")
	}
	got, err := c.DecryptCell(a)
	if err != nil || got != "value" {
		t.Fatalf("instance decrypt = %q, %v", got, err)
	}
}

func TestInstanceRoundTripQuick(t *testing.T) {
	c, _ := NewProbCipher(testKey(), PRFAESCTR)
	k := c.NewKernel()
	f := func(tweak, plain string, inst uint64) bool {
		ct := sealInstance(k, tweak, plain, inst)
		got, err := c.DecryptCell(ct)
		return err == nil && got == plain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecryptCellMalformed(t *testing.T) {
	c, _ := NewProbCipher(testKey(), PRFAESCTR)
	for _, bad := range []string{"", "!not-base64!", "c2hvcnQ"} {
		if _, err := c.DecryptCell(bad); err == nil {
			t.Errorf("DecryptCell(%q) accepted", bad)
		}
	}
}

func TestWrongKeyGarbles(t *testing.T) {
	c1, _ := NewProbCipher(testKey(), PRFAESCTR)
	c2, _ := NewProbCipher(KeyFromSeed("other-key"), PRFAESCTR)
	ct, _ := c1.EncryptCell("secret")
	got, err := c2.DecryptCell(ct)
	if err == nil && got == "secret" {
		t.Fatal("wrong key decrypted correctly")
	}
}

func TestDetCipherDeterministicAndInvertible(t *testing.T) {
	c, err := NewDetCipher(testKey())
	if err != nil {
		t.Fatalf("NewDetCipher: %v", err)
	}
	a, _ := c.EncryptCell("v1")
	b, _ := c.EncryptCell("v1")
	if a != b {
		t.Fatal("deterministic cipher produced different ciphertexts")
	}
	o, _ := c.EncryptCell("v2")
	if o == a {
		t.Fatal("different plaintexts collided")
	}
	got, err := c.DecryptCell(a)
	if err != nil || got != "v1" {
		t.Fatalf("decrypt = %q, %v", got, err)
	}
}

func TestHMACKeystreamLongValues(t *testing.T) {
	c, _ := NewProbCipher(testKey(), PRFHMAC)
	plain := strings.Repeat("0123456789abcdef", 20) // > one HMAC block
	ct, _ := c.EncryptCell(plain)
	got, err := c.DecryptCell(ct)
	if err != nil || got != plain {
		t.Fatalf("long HMAC round trip failed: %v", err)
	}
}

func TestPaillierRoundTripInt(t *testing.T) {
	pk, err := GeneratePaillier(256)
	if err != nil {
		t.Fatalf("GeneratePaillier: %v", err)
	}
	for _, m := range []int64{0, 1, 42, 1 << 30} {
		c, err := pk.EncryptInt(big.NewInt(m))
		if err != nil {
			t.Fatalf("EncryptInt(%d): %v", m, err)
		}
		got, err := pk.DecryptInt(c)
		if err != nil || got.Int64() != m {
			t.Fatalf("DecryptInt(%d) = %v, %v", m, got, err)
		}
	}
}

func TestPaillierProbabilistic(t *testing.T) {
	pk, _ := GeneratePaillier(256)
	a, _ := pk.EncryptInt(big.NewInt(7))
	b, _ := pk.EncryptInt(big.NewInt(7))
	if a.Cmp(b) == 0 {
		t.Fatal("Paillier encryptions of same value equal")
	}
}

func TestPaillierHomomorphic(t *testing.T) {
	pk, _ := GeneratePaillier(256)
	c1, _ := pk.EncryptInt(big.NewInt(20))
	c2, _ := pk.EncryptInt(big.NewInt(22))
	// Dec(c1·c2 mod n²) = m1+m2 and Dec(c1^k mod n²) = k·m1.
	sum, err := pk.DecryptInt(new(big.Int).Mod(new(big.Int).Mul(c1, c2), pk.N2))
	if err != nil || sum.Int64() != 42 {
		t.Fatalf("homomorphic add = %v, %v", sum, err)
	}
	prod, err := pk.DecryptInt(new(big.Int).Exp(c1, big.NewInt(3), pk.N2))
	if err != nil || prod.Int64() != 60 {
		t.Fatalf("homomorphic mul = %v, %v", prod, err)
	}
}

func TestPaillierCellRoundTrip(t *testing.T) {
	pk, _ := GeneratePaillier(512)
	for _, plain := range []string{"", "cell", "order-priority-HIGH", "\x00leading-nul"} {
		ct, err := pk.EncryptCell(plain)
		if err != nil {
			t.Fatalf("EncryptCell(%q): %v", plain, err)
		}
		got, err := pk.DecryptCell(ct)
		if err != nil || got != plain {
			t.Fatalf("cell round trip %q → %q, %v", plain, got, err)
		}
	}
	// Overlong cell must be rejected, not truncated.
	if _, err := pk.EncryptCell(strings.Repeat("x", 100)); err == nil {
		t.Error("overlong cell accepted for 512-bit modulus")
	}
}

func TestPaillierRejectsOutOfRange(t *testing.T) {
	pk, _ := GeneratePaillier(256)
	if _, err := pk.EncryptInt(big.NewInt(-1)); err == nil {
		t.Error("negative plaintext accepted")
	}
	if _, err := pk.EncryptInt(pk.N); err == nil {
		t.Error("plaintext ≥ n accepted")
	}
	if _, err := pk.DecryptInt(big.NewInt(0)); err == nil {
		t.Error("zero ciphertext accepted")
	}
	if _, err := GeneratePaillier(32); err == nil {
		t.Error("tiny modulus accepted")
	}
}

func TestKeyFromSeedStable(t *testing.T) {
	if KeyFromSeed("abc") != KeyFromSeed("abc") {
		t.Error("KeyFromSeed not deterministic")
	}
	if KeyFromSeed("abc") == KeyFromSeed("abd") {
		t.Error("KeyFromSeed collision on different seeds")
	}
}

// TestKeyFromSeedLongSeeds is the regression test for the truncation bug:
// the old derivation copied only the first KeySize bytes of the seed, so
// distinct seeds sharing a 32-byte prefix silently produced the same key.
func TestKeyFromSeedLongSeeds(t *testing.T) {
	prefix := strings.Repeat("p", KeySize)
	if KeyFromSeed(prefix+"-first") == KeyFromSeed(prefix+"-second") {
		t.Error("KeyFromSeed collision on seeds differing only past 32 bytes")
	}
	if KeyFromSeed(prefix) == KeyFromSeed(prefix+"-longer") {
		t.Error("KeyFromSeed collision between a seed and its extension")
	}
}

// TestKeyFromSeedEmptySeed: the old derivation returned the all-zero key
// for "", i.e. a fixed, guessable key.
func TestKeyFromSeedEmptySeed(t *testing.T) {
	if KeyFromSeed("") == (Key{}) {
		t.Error("KeyFromSeed(\"\") is the all-zero key")
	}
}

func TestKeyTextRoundTrip(t *testing.T) {
	k, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	text, err := k.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Key
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Error("key does not round-trip through text")
	}
	for _, bad := range []string{"", "zz", strings.Repeat("ab", KeySize-1), strings.Repeat("ab", KeySize) + "ff"} {
		if err := back.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
}

// The reference cell cipher: the straightforward construction Kernel
// replaces, with a fresh HMAC and a crypto/cipher CTR stream per cell.
// FuzzCellKernel holds the kernel to byte equality with it.

func refKeystream(key Key, prf PRF, r []byte, buf []byte) {
	switch prf {
	case PRFAESCTR:
		block, err := aes.NewCipher(key[:])
		if err != nil {
			panic(err)
		}
		cipher.NewCTR(block, r).XORKeyStream(buf, buf)
	case PRFHMAC:
		var ctr [8]byte
		for counter, off := uint64(0), 0; off < len(buf); counter++ {
			mac := hmac.New(sha256.New, key[:])
			mac.Write(r)
			binary.BigEndian.PutUint64(ctr[:], counter)
			mac.Write(ctr[:])
			ks := mac.Sum(nil)
			n := min(len(buf)-off, len(ks))
			for i := 0; i < n; i++ {
				buf[off+i] ^= ks[i]
			}
			off += n
		}
	}
}

func refSeal(key Key, prf PRF, r []byte, plain string) string {
	out := make([]byte, NonceSize+len(plain))
	copy(out, r[:NonceSize])
	body := out[NonceSize:]
	copy(body, plain)
	refKeystream(key, prf, r[:NonceSize], body)
	return base64.RawURLEncoding.EncodeToString(out)
}

func refLenPrefixed(w io.Writer, b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	w.Write(l[:])
	w.Write(b)
}

func refSealInstance(key Key, prf PRF, tweak, plain string, instance uint64) string {
	mac := hmac.New(sha256.New, key[:])
	var inst [8]byte
	binary.BigEndian.PutUint64(inst[:], instance)
	refLenPrefixed(mac, []byte(tweak))
	refLenPrefixed(mac, []byte(plain))
	mac.Write(inst[:])
	return refSeal(key, prf, mac.Sum(nil), plain)
}

func refSealDet(key Key, plain string) string {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte("det-siv"))
	mac.Write([]byte(plain))
	return refSeal(key, PRFAESCTR, mac.Sum(nil), plain)
}

func refOpen(key Key, prf PRF, ct string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(ct)
	if err != nil || len(raw) < NonceSize {
		return "", ErrCiphertext
	}
	body := append([]byte(nil), raw[NonceSize:]...)
	refKeystream(key, prf, raw[:NonceSize], body)
	return string(body), nil
}

// FuzzCellKernel checks that a long-lived Kernel seals and opens exactly
// like the reference cipher for both PRFs: the same ciphertext for every
// (tweak, plaintext, instance) and for every caller-chosen nonce, and the
// same plaintext — or the same refusal — for every input to Open.
func FuzzCellKernel(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, NonceSize)
	long := strings.Repeat("0123456789abcdef", 3) + "x" // three blocks and a tail
	f.Add("mas:{A1}|attr:1|rep:x", "1996-03-14", uint64(0), ones, base64.RawURLEncoding.EncodeToString(append(ones[:NonceSize:NonceSize], long...)))
	f.Add("row:7|attr:2", long, uint64(7), ones, "")
	f.Add("", "", uint64(1<<63), make([]byte, NonceSize), base64.RawURLEncoding.EncodeToString(make([]byte, NonceSize)))
	f.Add("fresh|attr:0", "\x00f2:1", uint64(0), []byte("short"), base64.RawURLEncoding.EncodeToString(make([]byte, NonceSize-1)))
	f.Add("t", "p", uint64(3), ones[:3], "!not base64!")
	f.Add("t", "p", uint64(3), ones, "AAAA\nAAAAAAAAAAAAAAAAAAAAAA=")
	key := testKey()
	kernels := make(map[PRF]*Kernel)
	for _, prf := range []PRF{PRFAESCTR, PRFHMAC} {
		c, err := NewProbCipher(key, prf)
		if err != nil {
			f.Fatal(err)
		}
		kernels[prf] = c.NewKernel()
	}
	det, err := NewDetCipher(key)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, tweak, plain string, instance uint64, nonce []byte, ct string) {
		for prf, k := range kernels {
			k.Tweak = append(k.Tweak[:0], tweak...)
			got := k.SealInstance(plain, instance)
			if want := refSealInstance(key, prf, tweak, plain, instance); got != want {
				t.Fatalf("%v: SealInstance(%q, %q, %d) = %q, want %q", prf, tweak, plain, instance, got, want)
			}
			if back, err := k.Open(got); err != nil || back != plain {
				t.Fatalf("%v: Open(SealInstance(%q)) = %q, %v", prf, plain, back, err)
			}
			if len(nonce) >= NonceSize {
				r := [NonceSize]byte(nonce[:NonceSize])
				if got, want := k.seal(&r, plain), refSeal(key, prf, nonce, plain); got != want {
					t.Fatalf("%v: seal(%x, %q) = %q, want %q", prf, nonce[:NonceSize], plain, got, want)
				}
			}
			got, gotErr := k.Open(ct)
			want, wantErr := refOpen(key, prf, ct)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%v: Open(%q) = %q, %v; reference %q, %v", prf, ct, got, gotErr, want, wantErr)
			}
		}
		if got, _ := det.EncryptCell(plain); got != refSealDet(key, plain) {
			t.Fatalf("DetCipher.EncryptCell(%q) = %q, want %q", plain, got, refSealDet(key, plain))
		}
	})
}

// TestProbCipherConcurrent runs private kernels and the pooled one-shot
// methods from several goroutines at once: every goroutine must see the
// same ciphertexts as a serial run, with no state leaking between them.
func TestProbCipherConcurrent(t *testing.T) {
	c, err := NewProbCipher(testKey(), PRFAESCTR)
	if err != nil {
		t.Fatal(err)
	}
	plains := []string{"", "x", "1996-03-14", strings.Repeat("long value ", 9)}
	want := make([]string, len(plains))
	serial := c.NewKernel()
	for i, p := range plains {
		want[i] = sealInstance(serial, "tweak", p, uint64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := c.NewKernel()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(plains)
				ct := sealInstance(k, "tweak", plains[i], uint64(i))
				if ct != want[i] {
					t.Errorf("goroutine %d: SealInstance(%q) = %q, want %q", g, plains[i], ct, want[i])
					return
				}
				if p, err := c.DecryptCell(ct); err != nil || p != plains[i] {
					t.Errorf("goroutine %d: DecryptCell = %q, %v", g, p, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
