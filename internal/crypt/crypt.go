// Package crypt provides the cryptographic substrate for F²:
//
//   - a probabilistic cell cipher e = <r, F_k(r) ⊕ p> built on a
//     pseudorandom function (AES-CTR or HMAC-SHA256), per §2.3/§3.2.2 of
//     the paper;
//   - a deterministic cell cipher (SIV-style AES) matching the paper's AES
//     baseline; and
//   - a from-scratch Paillier cryptosystem on math/big matching the
//     paper's probabilistic asymmetric baseline.
//
// The probabilistic and deterministic ciphers share one seal/open
// implementation, Kernel: per-goroutine state (a keyed HMAC reset between
// cells, inline AES-CTR over the block cipher, base64 scratch) that seals
// or opens a cell with one allocation, the result string. Hot loops hold a
// kernel per worker; the ProbCipher and DetCipher methods are one-shot
// wrappers that borrow a pooled kernel.
//
// Everything is stdlib-only. Ciphertexts are base64url strings so they can
// live in ordinary relational cells and be compared for equality by the
// server.
package crypt

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// KeySize is the symmetric key size in bytes (AES-256 / HMAC-SHA256).
const KeySize = 32

// NonceSize is the size of the random string r in e = <r, F_k(r) ⊕ p>.
const NonceSize = 16

// Key is a symmetric key for the PRF-based ciphers.
type Key [KeySize]byte

// GenerateKey draws a fresh random key (KeyGen(λ) of §2.3 with λ = 256).
func GenerateKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypt: generating key: %w", err)
	}
	return k, nil
}

// KeyFromSeed derives a key deterministically from a seed string by
// hashing it with SHA-256, so the whole seed contributes to the key:
// seeds longer than KeySize no longer collide on a shared 32-byte prefix,
// and the empty seed maps to SHA-256("") rather than the all-zero key.
// Intended for tests and benchmarks that need reproducible ciphertexts;
// production callers should use GenerateKey.
func KeyFromSeed(seed string) Key {
	return Key(sha256.Sum256([]byte(seed)))
}

// MarshalText encodes the key as lowercase hex, so keys embed in JSON and
// text configs. Handle the output like the key itself.
func (k Key) MarshalText() ([]byte, error) {
	return []byte(hex.EncodeToString(k[:])), nil
}

// UnmarshalText inverts MarshalText, rejecting anything but exactly
// KeySize bytes of hex.
func (k *Key) UnmarshalText(text []byte) error {
	raw, err := hex.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("crypt: decoding key: %w", err)
	}
	if len(raw) != KeySize {
		return fmt.Errorf("crypt: key is %d bytes, want %d", len(raw), KeySize)
	}
	copy(k[:], raw)
	return nil
}

// CellCipher is the minimal interface both the probabilistic and the
// deterministic cipher satisfy: encrypt one relational cell to a ciphertext
// string and invert it.
type CellCipher interface {
	// EncryptCell encrypts a single cell value.
	EncryptCell(plain string) (string, error)
	// DecryptCell inverts EncryptCell.
	DecryptCell(cipher string) (string, error)
}

// ErrCiphertext is returned when a ciphertext is malformed.
var ErrCiphertext = errors.New("crypt: malformed ciphertext")
