//! SHA-256 (FIPS 180-4), implemented from scratch so the workspace has no
//! external cryptography dependency. Verified against the NIST test vectors
//! in the unit tests below.
//!
//! Two compression kernels produce the same state from the same blocks:
//!
//! - a portable scalar kernel, the only one on CPUs and targets without the
//!   x86-64 SHA extensions;
//! - on x86-64, a kernel built on the SHA extensions
//!   (`sha256rnds2`/`sha256msg1`/`sha256msg2`), several times faster.
//!
//! [`Sha256::new`] asks CPUID once per hasher, through
//! `is_x86_feature_detected!`, and every block that hasher compresses goes
//! through the kernel it chose. Nothing else selects the kernel: no cargo
//! feature, environment variable or `target-cpu` flag. The unit tests run
//! random states and blocks through both kernels and compare them.

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A compression kernel: folds whole 64-byte blocks into the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Portable,
    /// Constructed only by [`Kernel::sha_ext`], after CPUID reported every
    /// feature [`sha_ext::compress`] is compiled for.
    #[cfg(target_arch = "x86_64")]
    ShaExt,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Kernel {
        Kernel::sha_ext().unwrap_or(Kernel::Portable)
    }

    /// The SHA-extension kernel, if this CPU has the extensions.
    #[cfg(target_arch = "x86_64")]
    fn sha_ext() -> Option<Kernel> {
        let has = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        has.then_some(Kernel::ShaExt)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn sha_ext() -> Option<Kernel> {
        None
    }

    /// Compress `blocks`, whose length is a multiple of 64, into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Portable => compress_portable(state, blocks),
            // SAFETY: `ShaExt` exists only once `Kernel::sha_ext` has seen
            // CPUID report sha, sse2, ssse3 and sse4.1, the features
            // `sha_ext::compress` enables; it reads only whole blocks.
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaExt => unsafe { sha_ext::compress(state, blocks) },
        }
    }
}

/// Streaming SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a new hasher on the fastest kernel this CPU runs.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            kernel,
        }
    }

    /// Absorb input bytes. Whole blocks are compressed straight from `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            self.kernel.compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Absorb `part` preceded by its length as a little-endian `u64`, so a
    /// sequence of variable-length parts hashes unambiguously (`["ab", "c"]`
    /// and `["a", "bc"]` differ). The crate's one length-prefixing rule.
    pub fn update_prefixed(&mut self, part: &[u8]) {
        self.update(&(part.len() as u64).to_le_bytes());
        self.update(part);
    }

    /// Finish hashing and return the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the message length in bits as a
        // big-endian u64 in the last 8 bytes of the last block. One block if
        // the 0x80 and the length fit after the buffered bytes, else two.
        let n = self.buffer_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let tail_len = if n < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        self.kernel.compress(&mut state, &tail[..tail_len]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable kernel: FIPS 180-4 §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-extension kernel.
#[cfg(target_arch = "x86_64")]
mod sha_ext {
    use super::K;
    use std::arch::x86_64::*;

    /// Compress `blocks`, whose length is a multiple of 64, into `state`.
    ///
    /// `sha256rnds2` runs two rounds on the state split as `ABEF` and `CDGH`
    /// (A and C in the top lane), so the state is shuffled into that layout
    /// once per call and back at the end. Four rounds take one vector of
    /// message words plus round constants; `sha256msg1`/`sha256msg2` extend
    /// the message schedule four words at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        // Four rounds on message words `w`, rounds 4g..4g+4.
        macro_rules! rounds4 {
            ($w:expr, $g:expr) => {{
                let k = _mm_loadu_si128(K.as_ptr().add(4 * $g).cast());
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next four schedule words from the sixteen before them, oldest
        // vector first.
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                    $w3,
                )
            };
        }

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for g in [4, 8, 12] {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, g);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, g + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, g + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;
    use std::sync::Once;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The portable kernel, and the SHA-extension kernel when this CPU has
    /// it. Without it the skip is written to stderr past the test harness's
    /// capture, so a run on such a CPU says it checked one kernel only.
    fn kernels() -> Vec<Kernel> {
        static SKIP_NOTICE: Once = Once::new();
        match Kernel::sha_ext() {
            Some(fast) => vec![Kernel::Portable, fast],
            None => {
                SKIP_NOTICE.call_once(|| {
                    let _ = writeln!(
                        std::io::stderr(),
                        "SKIPPED: this CPU has no SHA extensions; only the portable SHA-256 kernel was checked"
                    );
                });
                vec![Kernel::Portable]
            }
        }
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    /// A NIST vector, through every kernel this CPU runs and the one-shot
    /// digest.
    fn assert_vector(input: &[u8], want: &str) {
        for kernel in kernels() {
            assert_eq!(hex(&digest_with(kernel, input)), want, "{kernel:?}");
        }
        assert_eq!(hex(&sha256(input)), want, "one-shot");
    }

    #[test]
    fn nist_vector_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_vector_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Every padding case: the 0x80 and the length in the same block or the
    /// next, and lengths on and around block boundaries, streamed at every
    /// split point through every kernel. The digests are an independent
    /// SHA-256's (Python's `hashlib`) of bytes `(31 * i + 7) mod 256`.
    #[test]
    fn boundary_lengths_stream_like_oneshot() {
        let known = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
            ),
            (
                56,
                "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
            ),
            (
                63,
                "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
            ),
            (
                64,
                "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
            ),
            (
                65,
                "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0",
            ),
            (
                119,
                "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe",
            ),
            (
                120,
                "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656",
            ),
            (
                128,
                "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356",
            ),
        ];
        for (len, want) in known {
            let data: Vec<u8> = (0..len).map(|i: u32| (i * 31 + 7) as u8).collect();
            for kernel in kernels() {
                assert_eq!(
                    hex(&digest_with(kernel, &data)),
                    want,
                    "{kernel:?}, {len} bytes"
                );
                for cut in 0..=data.len() {
                    let mut h = Sha256::with_kernel(kernel);
                    h.update(&data[..cut]);
                    h.update(&data[cut..]);
                    assert_eq!(
                        hex(&h.finalize()),
                        want,
                        "{kernel:?}, {len} bytes cut at {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = sha256(&data);
        for chunk_size in [1, 3, 17, 63, 64, 65, 100, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
        assert_ne!(sha256(b"a"), sha256(b"aa"));
    }

    proptest! {
        /// Both kernels fold the same blocks, up to four, into the same
        /// arbitrary state.
        #[test]
        fn kernels_agree_on_random_states(
            state in prop::collection::vec(any::<u32>(), 8),
            bytes in prop::collection::vec(any::<u8>(), 256),
            n in 0usize..=4,
        ) {
            let state: [u32; 8] = state.try_into().expect("eight words");
            let blocks = &bytes[..64 * n];
            let mut want = state;
            compress_portable(&mut want, blocks);
            for kernel in kernels() {
                let mut got = state;
                kernel.compress(&mut got, blocks);
                prop_assert_eq!(got, want, "{:?}, {} blocks", kernel, n);
            }
        }

        /// Random inputs streamed at random split points hash like the
        /// portable one-shot digest, on every kernel.
        #[test]
        fn kernels_agree_streamed(
            data in prop::collection::vec(any::<u8>(), 0..600),
            cuts in prop::collection::vec(any::<usize>(), 0..4),
        ) {
            let want = digest_with(Kernel::Portable, &data);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(data.len());
            for kernel in kernels() {
                prop_assert_eq!(digest_with(kernel, &data), want, "{:?}", kernel);
                let mut h = Sha256::with_kernel(kernel);
                let mut from = 0;
                for &cut in &cuts {
                    h.update(&data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(h.finalize(), want, "{:?} cut at {:?}", kernel, cuts);
            }
        }
    }
}
