package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"encoding/binary"
	"hash"
)

// Kernel is one goroutine's working state for sealing and opening cells
// under a ProbCipher: a keyed HMAC that is Reset between cells, the
// AES-CTR counter and keystream blocks, and scratch buffers for the raw
// and base64 forms of a cell. Sealing or opening a cell through a Kernel
// allocates only the result string.
//
// A Kernel holds mutable hash and buffer state, so it is not safe for
// concurrent use: each worker takes its own from ProbCipher.NewKernel and
// never shares it with another goroutine.
type Kernel struct {
	// Tweak is the context SealInstance binds into the derived nonce.
	// Callers build it in place — k.Tweak = append(k.Tweak[:0], ...) — so
	// the buffer is reused from cell to cell.
	Tweak []byte

	prf   PRF
	block cipher.Block // shared with the ProbCipher; Encrypt is read-only
	mac   hash.Hash    // HMAC-SHA256 under the cell key
	ctr   [aes.BlockSize]byte
	ks    [aes.BlockSize]byte
	sum   [sha256.Size]byte
	word  [8]byte // length prefixes and counters fed to the HMAC
	raw   []byte  // r || body
	text  []byte  // base64 form of raw
}

// NewKernel returns a fresh kernel for one goroutine.
func (c *ProbCipher) NewKernel() *Kernel {
	return &Kernel{
		Tweak: make([]byte, 0, 128),
		prf:   c.prf,
		block: c.block,
		mac:   hmac.New(sha256.New, c.key[:]),
	}
}

// SealInstance encrypts plaintext p as split instance `instance` under
// the context in k.Tweak (e.g. the MAS and attribute). The nonce is
// r = HMAC_k(len‖tweak ‖ len‖p ‖ instance), so the mapping is
// deterministic per key: every copy of the instance gets the identical
// ciphertext string, and different (tweak, plaintext, instance) triples
// get distinct ciphertexts with overwhelming probability.
func (k *Kernel) SealInstance(plain string, instance uint64) string {
	body := k.loadBody(plain)
	k.mac.Reset()
	k.writeLenPrefixed(k.Tweak)
	k.writeLenPrefixed(body)
	binary.BigEndian.PutUint64(k.word[:], instance)
	k.mac.Write(k.word[:])
	copy(k.raw[:NonceSize], k.mac.Sum(k.sum[:0]))
	return k.sealLoaded()
}

// sealDet is DetCipher's seal: r = HMAC_k("det-siv" ‖ p).
func (k *Kernel) sealDet(plain string) string {
	body := k.loadBody(plain)
	k.mac.Reset()
	k.mac.Write([]byte("det-siv"))
	k.mac.Write(body)
	copy(k.raw[:NonceSize], k.mac.Sum(k.sum[:0]))
	return k.sealLoaded()
}

// seal encrypts plain under the caller's nonce r.
func (k *Kernel) seal(r *[NonceSize]byte, plain string) string {
	k.loadBody(plain)
	copy(k.raw, r[:])
	return k.sealLoaded()
}

// Open recovers p = F_k(r) ⊕ s from e = <r, s>. Anything that is not
// base64url of at least NonceSize bytes is ErrCiphertext.
func (k *Kernel) Open(ct string) (string, error) {
	k.text = append(k.text[:0], ct...)
	k.raw = resize(k.raw, base64.RawURLEncoding.DecodedLen(len(k.text)))
	n, err := base64.RawURLEncoding.Decode(k.raw, k.text)
	if err != nil || n < NonceSize {
		return "", ErrCiphertext
	}
	body := k.raw[NonceSize:n]
	k.xorKeystream(k.raw[:NonceSize], body)
	return string(body), nil
}

// loadBody sizes k.raw for a nonce followed by plain, copies plain into
// place and returns that body.
func (k *Kernel) loadBody(plain string) []byte {
	k.raw = resize(k.raw, NonceSize+len(plain))
	body := k.raw[NonceSize:]
	copy(body, plain)
	return body
}

// sealLoaded finishes a seal once k.raw holds r ‖ p: it XORs the body
// with F_k(r) and returns base64url(r ‖ F_k(r) ⊕ p).
func (k *Kernel) sealLoaded() string {
	k.xorKeystream(k.raw[:NonceSize], k.raw[NonceSize:])
	k.text = resize(k.text, base64.RawURLEncoding.EncodedLen(len(k.raw)))
	base64.RawURLEncoding.Encode(k.text, k.raw)
	return string(k.text)
}

// xorKeystream XORs buf with the PRF keystream F_k(r). r must not overlap
// buf.
func (k *Kernel) xorKeystream(r, buf []byte) {
	switch k.prf {
	case PRFAESCTR:
		// Counter mode exactly as cipher.NewCTR runs it: the counter
		// starts at r and increments as one big-endian 128-bit integer.
		copy(k.ctr[:], r)
		for off := 0; off < len(buf); off += aes.BlockSize {
			k.block.Encrypt(k.ks[:], k.ctr[:])
			for i := aes.BlockSize - 1; i >= 0; i-- {
				k.ctr[i]++
				if k.ctr[i] != 0 {
					break
				}
			}
			subtle.XORBytes(buf[off:], buf[off:], k.ks[:])
		}
	case PRFHMAC:
		// Block j of the keystream is HMAC_k(r ‖ j) with a 64-bit counter.
		for j, off := uint64(0), 0; off < len(buf); j, off = j+1, off+sha256.Size {
			k.mac.Reset()
			k.mac.Write(r)
			binary.BigEndian.PutUint64(k.word[:], j)
			k.mac.Write(k.word[:])
			subtle.XORBytes(buf[off:], buf[off:], k.mac.Sum(k.sum[:0]))
		}
	}
}

// writeLenPrefixed feeds a 32-bit big-endian length and then b to the HMAC.
func (k *Kernel) writeLenPrefixed(b []byte) {
	binary.BigEndian.PutUint32(k.word[:4], uint32(len(b)))
	k.mac.Write(k.word[:4])
	k.mac.Write(b)
}

// resize returns b with length n, reallocating only when its capacity is
// too small.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n, 2*n)
	}
	return b[:n]
}
