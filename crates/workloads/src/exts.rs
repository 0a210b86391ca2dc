//! The extension-set (TIE) library shared by the characterization suite
//! and the application benchmarks.
//!
//! Each constructor builds one "enhanced processor" configuration. Between
//! them the sets exercise **all ten** hardware-library categories at
//! several bit-widths, which the characterization suite needs in order to
//! identify every structural coefficient of the macro-model ("the test
//! program suite also incorporates custom instructions so as to cover all
//! the custom hardware library components").
//!
//! Every set is written in the TIE language of [`emx_tie::lang`] and put
//! through the same front end as discovered and user-supplied extensions.
//! Pieces that several sets share — the GF(2⁴) multiply body, the
//! Reed–Solomon syndrome unit — are written once and spliced in, and
//! lookup tables whose contents are computed in Rust (the [`gf`] tables,
//! `des_sbox`, the `bigtable` curve) are rendered as `table`
//! declarations.

use emx_tie::lang::parse_extension;
use emx_tie::ExtensionSet;

use crate::gf;

/// Compiles `extension NAME { … }` whose body is the concatenation of
/// `parts`. The sources are fixed, so a failure is a bug in this file.
fn tie(name: &str, parts: &[&str]) -> ExtensionSet {
    let src = format!("extension {name} {{\n{}\n}}", parts.concat());
    parse_extension(&src).unwrap_or_else(|e| panic!("built-in extension `{name}`: {e}"))
}

/// A `table NAME[N] : WIDTH = { … };` declaration over computed entries.
fn table(name: &str, width: u8, entries: impl IntoIterator<Item = u64>) -> String {
    let entries: Vec<String> = entries.into_iter().map(|v| v.to_string()).collect();
    format!(
        "table {name}[{}] : {width} = {{ {} }};\n",
        entries.len(),
        entries.join(", ")
    )
}

/// The log/antilog tables that [`gf_mul!`] indexes.
fn gf_tables() -> String {
    table("logt", 4, gf::log_table()) + &table("expt", 4, gf::exp_table())
}

/// Statements computing the GF(2⁴) product `p = a ⊗ b` of two 4-bit
/// names through the [`gf_tables`], with explicit zero handling.
macro_rules! gf_mul {
    () => {
        "
        la = logt[a];
        lb = logt[b];
        s : 5 = la + lb;
        e = expt[s];
        nz = redor(a) & redor(b);
        z : 4 = 0;
        p = mux(nz, e, z);"
    };
}

/// `gfmul d, a, b` — `d = a ⊗ b` in GF(16).
const GFMUL: &str = concat!(
    "
    inst gfmul(a: gpr(4), b: gpr(4), out d: gpr) {",
    gf_mul!(),
    "
        d = p;
    }"
);

/// The four-way parallel syndrome unit of [`rs_wide`] and [`rs_full`]:
/// the `syn` register, the `αⁱ` constant-multiplier tables and
/// `synstep`/`rdsyn`/`clrsyn`.
fn syndrome_unit() -> String {
    let mut src: String = (1..4)
        .map(|i| table(&format!("alpha{i}"), 4, gf::const_mul_table(i)))
        .collect();
    src.push_str(
        "
    state syn : 16;
    inst synstep(r: gpr(4), syn: state(syn), out next: state(syn)) {
        s0 = slice(syn, 0, 4);
        x0 = s0 ^ r; // α⁰ = 1: no constant multiplier needed
        s1 = slice(syn, 4, 4);
        x1 = alpha1[s1] ^ r;
        s2 = slice(syn, 8, 4);
        x2 = alpha2[s2] ^ r;
        s3 = slice(syn, 12, 4);
        x3 = alpha3[s3] ^ r;
        p01 = pack(x0, x1, 4);
        p012 = pack(p01, x2, 8);
        next = pack(p012, x3, 12);
    }
    inst rdsyn(syn: state(syn), out d: gpr) {
        d = syn;
    }
    inst clrsyn(out next: state(syn)) {
        next = 0;
    }",
    );
    src
}

/// `absdiff d, a, b` — unsigned absolute difference.
const ABSDIFF: &str = "
    inst absdiff(a: gpr, b: gpr, out d: gpr) {
        lt = ltu(a, b);
        d1 = a - b;
        d2 = b - a;
        d = mux(lt, d2, d1);
    }";

/// `mac16`: a 16×16 multiply–accumulate unit over a 40-bit accumulator
/// (`TIE_mac` + custom register).
///
/// * `mac a, b` — `acc += a·b`
/// * `rdacc d` — `d = acc[31:0]`
/// * `clracc` — `acc = 0`
pub fn mac16() -> ExtensionSet {
    tie(
        "mac16",
        &["
    state acc : 40;
    inst mac(a: gpr(16), b: gpr(16), acc: state(acc), out next: state(acc)) {
        next = mac(a, b, acc);
    }
    inst rdacc(acc: state(acc), out d: gpr) {
        d = slice(acc, 0, 32);
    }
    inst clracc(out next: state(acc)) {
        next = 0;
    }"],
    )
}

/// `mac8`: the same MAC structure at 8-bit operand / 20-bit accumulator
/// width. Exists so the characterization suite sees the TIE_mac and
/// custom-register categories at two different complexity ratios (the
/// quadratic-vs-linear `f(C)` split is unidentifiable from one width).
pub fn mac8() -> ExtensionSet {
    tie(
        "mac8",
        &["
    state acc : 20;
    inst mac(a: gpr(8), b: gpr(8), acc: state(acc), out next: state(acc)) {
        next = mac(a, b, acc);
    }
    inst rdacc(acc: state(acc), out d: gpr) {
        d = slice(acc, 0, 20);
    }
    inst clracc(out next: state(acc)) {
        next = 0;
    }"],
    )
}

/// `mac16x2`: dual MAC over packed 16-bit lanes with two 40-bit
/// accumulators (the `multi_accumulate` datapath).
///
/// * `mac2 a, b` — `acc0 += lo16(a)·lo16(b); acc1 += hi16(a)·hi16(b)`
/// * `rdacc0 d` / `rdacc1 d` — read accumulator low words
/// * `clracc2` — clear both
pub fn mac16x2() -> ExtensionSet {
    tie(
        "mac16x2",
        &["
    state acc0 : 40;
    state acc1 : 40;
    inst mac2(a: gpr, b: gpr, acc0: state(acc0), acc1: state(acc1),
              out next0: state(acc0), out next1: state(acc1)) {
        alo = slice(a, 0, 16);
        ahi = slice(a, 16, 16);
        blo = slice(b, 0, 16);
        bhi = slice(b, 16, 16);
        next0 = mac(alo, blo, acc0);
        next1 = mac(ahi, bhi, acc1);
    }
    inst rdacc0(acc: state(acc0), out d: gpr) {
        d = slice(acc, 0, 32);
    }
    inst rdacc1(acc: state(acc1), out d: gpr) {
        d = slice(acc, 0, 32);
    }
    inst clracc2(out next0: state(acc0), out next1: state(acc1)) {
        z : 40 = 0;
        next0 = z;
        next1 = z;
    }"],
    )
}

/// `gf16`: a single-instruction GF(2⁴) multiplier using log/antilog
/// tables (categories: table, adder, logic/mux).
///
/// * `gfmul d, a, b` — `d = a ⊗ b` in GF(16)
pub fn gf16() -> ExtensionSet {
    tie("gf16", &[&gf_tables(), GFMUL])
}

/// `gf16mac`: GF(2⁴) multiplier plus an accumulating variant over a 4-bit
/// custom register.
///
/// * `gfmul d, a, b`
/// * `gfmac a, b` — `gacc ^= a ⊗ b`
/// * `rdgacc d` / `clrgacc`
pub fn gf16_mac() -> ExtensionSet {
    let gfmac = concat!(
        "
    state gacc : 4;
    inst gfmac(a: gpr(4), b: gpr(4), gacc: state(gacc), out next: state(gacc)) {",
        gf_mul!(),
        "
        next = p ^ gacc;
    }
    inst rdgacc(gacc: state(gacc), out d: gpr) {
        d = gacc;
    }
    inst clrgacc(out next: state(gacc)) {
        next = 0;
    }"
    );
    tie("gf16mac", &[&gf_tables(), GFMUL, gfmac])
}

/// `rswide`: a four-way parallel Reed–Solomon syndrome unit over a packed
/// 16-bit syndrome register. One `synstep` performs, for all four
/// syndromes at once, `S_i ← S_i·αⁱ ⊕ r` — a full Horner step per
/// received symbol.
///
/// * `synstep r`
/// * `rdsyn d` — packed `[S3 S2 S1 S0]`
/// * `clrsyn`
pub fn rs_wide() -> ExtensionSet {
    tie("rswide", &[&syndrome_unit()])
}

/// `rsfull`: the widest Reed–Solomon configuration — the parallel
/// syndrome unit of [`rs_wide`] plus the [`gf16`] multiplier, so both the
/// encoder and the decoder run on custom hardware.
pub fn rs_full() -> ExtensionSet {
    tie("rsfull", &[&gf_tables(), GFMUL, &syndrome_unit()])
}

/// `dsp16`: saturating fractional multiply plus variable shifts
/// (multiplier, shifter, comparator coverage).
///
/// * `satmul d, a, b` — `d = min((a·b) >> 7, 0xffff)` over 16-bit inputs
/// * `vshl d, a, b` / `vshr d, a, b` — variable barrel shifts
pub fn dsp16() -> ExtensionSet {
    tie(
        "dsp16",
        &["
    inst satmul(a: gpr(16), b: gpr(16), out d: gpr) {
        p = a * b;
        sh = slice(p, 7, 25);
        limit : 25 = 0xffff;
        over = ltu(limit, sh);
        lo = slice(sh, 0, 16);
        sat : 16 = 0xffff;
        d = mux(over, sat, lo);
    }
    inst vshl(a: gpr, b: gpr(5), out d: gpr) {
        d = a << b;
    }
    inst vshr(a: gpr, b: gpr(5), out d: gpr) {
        d = a >> b;
    }"],
    )
}

/// `csamult`: a carry-save sequential-multiplier step unit (the
/// `seq_mult` datapath; `TIE_csa` + `TIE_add` coverage).
///
/// State: carry-save pair `(ssum, scarry)`.
///
/// * `mstep m, bit` — if `bit`, CSA-accumulate `m` into the pair
/// * `mres d` — resolve the pair with a `TIE_add`
/// * `mclr`
pub fn csa_mult() -> ExtensionSet {
    tie(
        "csamult",
        &["
    state ssum : 32;
    state scarry : 32;
    inst mstep(m: gpr, bit: gpr(1), ssum: state(ssum), scarry: state(scarry),
               out nsum: state(ssum), out ncarry: state(scarry)) {
        z : 32 = 0;
        masked = mux(bit, m, z);
        nsum = csa_sum(ssum, scarry, masked);
        ncarry = csa_carry(ssum, scarry, masked);
    }
    inst mres(ssum: state(ssum), scarry: state(scarry), out d: gpr) {
        z : 32 = 0;
        d : 32 = add3(ssum, scarry, z);
    }
    inst mclr(out nsum: state(ssum), out ncarry: state(scarry)) {
        z : 32 = 0;
        nsum = z;
        ncarry = z;
    }"],
    )
}

/// `tmul16`: `TIE_mult` coverage — low and high halves of a 16×16
/// product.
pub fn tmul16() -> ExtensionSet {
    tie(
        "tmul16",
        &["
    inst tmullo(a: gpr(16), b: gpr(16), out d: gpr) {
        p = tmul(a, b);
        d = slice(p, 0, 16);
    }
    inst tmulhi(a: gpr(16), b: gpr(16), out d: gpr) {
        p = tmul(a, b);
        d = slice(p, 16, 16);
    }"],
    )
}

/// `wide64`: a 64-bit signature register (wide custom-register +
/// reduction-logic coverage).
///
/// * `wacc a` — `w ^= (a | a<<32)`
/// * `wpar d` — parity of `w`
/// * `wclr`
pub fn wide64() -> ExtensionSet {
    tie(
        "wide64",
        &["
    state w : 64;
    inst wacc(a: gpr, w: state(w), out next: state(w)) {
        rep = pack(a, a, 32);
        next = w ^ rep;
    }
    inst wpar(w: state(w), out d: gpr) {
        d = redxor(w);
    }
    inst wclr(out next: state(w)) {
        next = 0;
    }"],
    )
}

/// `simd4`: a packed 4×8-bit SIMD adder (`add4` workload).
///
/// * `add4x8 d, a, b` — four independent byte sums, no cross-lane carry
pub fn simd4() -> ExtensionSet {
    tie(
        "simd4",
        &["
    inst add4x8(a: gpr, b: gpr, out d: gpr) {
        s0 : 8 = slice(a, 0, 8) + slice(b, 0, 8);
        s1 : 8 = slice(a, 8, 8) + slice(b, 8, 8);
        s2 : 8 = slice(a, 16, 8) + slice(b, 16, 8);
        s3 : 8 = slice(a, 24, 8) + slice(b, 24, 8);
        p01 = pack(s0, s1, 8);
        p012 = pack(p01, s2, 16);
        d = pack(p012, s3, 24);
    }"],
    )
}

/// `sortpair`: compare-and-order unit for sorting kernels.
///
/// * `cmpx d, a, b` — `d = max(a,b)` (unsigned); `min(a,b)` is latched in
///   the `min` custom register
/// * `rdmin d` — read the latched minimum
pub fn sortpair() -> ExtensionSet {
    tie(
        "sortpair",
        &["
    state min : 32;
    inst cmpx(a: gpr, b: gpr, out d: gpr, out lo: state(min)) {
        lt = ltu(a, b);
        d = mux(lt, b, a);
        lo = mux(lt, a, b);
    }
    inst rdmin(min: state(min), out d: gpr) {
        d = min;
    }"],
    )
}

/// `blend8`: an 8-bit alpha blender (`alphablend` workload):
/// `d = (a·α + b·(255−α)) >> 8` with α in a custom register.
///
/// * `setalpha a`
/// * `blend d, a, b`
pub fn blend8() -> ExtensionSet {
    tie(
        "blend8",
        &["
    state alpha : 8;
    inst setalpha(a: gpr(8), out next: state(alpha)) {
        next = a;
    }
    inst blend(a: gpr(8), b: gpr(8), alpha: state(alpha), out d: gpr) {
        p1 = a * alpha;
        ia = 255 - alpha;
        p2 = b * ia;
        s : 16 = p1 + p2;
        d = slice(s, 8, 8);
    }"],
    )
}

/// Pseudo-DES S-box contents: two fixed, data-rich 64-entry 4-bit tables.
pub(crate) fn des_sbox(which: usize, index: u64) -> u64 {
    let i = index & 63;
    match which {
        0 => ((i * 13 + 5) ^ (i >> 2)) & 0xf,
        _ => ((i * 7 + 11) ^ (i >> 3) ^ 0x9) & 0xf,
    }
}

/// `sbox12`: a two-S-box substitution unit (the DES workload): a 12-bit
/// input is split into two 6-bit halves, each substituted through its own
/// 64-entry table, producing a packed 8-bit result.
///
/// * `dsbox d, a`
pub fn sbox12() -> ExtensionSet {
    tie(
        "sbox12",
        &[
            &table("sbox0", 4, (0..64).map(|i| des_sbox(0, i))),
            &table("sbox1", 4, (0..64).map(|i| des_sbox(1, i))),
            "
    inst dsbox(x: gpr(12), out d: gpr) {
        lo = slice(x, 0, 6);
        hi = slice(x, 6, 6);
        s0 = sbox0[lo];
        s1 = sbox1[hi];
        d = pack(s0, s1, 4);
    }",
        ],
    )
}

/// `tie_alu`: stateless three-operand TIE arithmetic — the fused modules
/// wired straight between the operand buses, an immediate and the result
/// bus, with **no custom registers**. Exists so the TIE_mac / TIE_add /
/// TIE_csa categories appear in the characterization suite unbundled from
/// custom-register traffic.
///
/// * `maci d, a, b, imm` — `d = a·b + imm` (TIE_mac)
/// * `add3i d, a, b, imm` — `d = a + b + imm` (TIE_add)
/// * `csa3s d, a, b, imm` / `csa3c d, a, b, imm` — carry-save sum/carry
pub fn tie_alu() -> ExtensionSet {
    tie(
        "tie_alu",
        &["
    inst maci(a: gpr, b: gpr, imm: imm(32), out d: gpr) {
        d : 32 = mac(a, b, imm);
    }
    inst add3i(a: gpr, b: gpr, imm: imm(32), out d: gpr) {
        d : 32 = add3(a, b, imm);
    }
    inst csa3s(a: gpr, b: gpr, imm: imm(32), out d: gpr) {
        d : 32 = csa_sum(a, b, imm);
    }
    inst csa3c(a: gpr, b: gpr, imm: imm(32), out d: gpr) {
        d : 32 = csa_carry(a, b, imm);
    }
    // A near-empty custom instruction: one wire-level pass-through. Its
    // executions carry GPR coupling (n_CI) with almost no combinational
    // hardware, separating the side-effect coefficient from the
    // logic/mux category.
    inst cpass(a: gpr, out d: gpr) {
        d = slice(a, 0, 32);
    }"],
    )
}

/// `mul32c`: a full-width 32-bit custom multiplier (`cmul d, a, b`).
/// Gives the characterization suite the general-multiplier category at
/// `f(C) = 1`, complementing the 8- and 16-bit instances elsewhere.
pub fn mul32c() -> ExtensionSet {
    tie(
        "mul32c",
        &["
    inst cmul(a: gpr, b: gpr, out d: gpr) {
        d : 32 = a * b;
    }"],
    )
}

/// `bigtable`: a 256-entry × 16-bit lookup unit (`tlu d, a`) — a
/// sine/companding-style table far larger than the GF and S-box tables,
/// giving the table category a high-complexity instance.
pub fn bigtable() -> ExtensionSet {
    tie(
        "bigtable",
        &[
            &table(
                "curve",
                16,
                (0..256u64).map(|i| (i * i * 257 / 64) & 0xffff),
            ),
            "
    inst tlu(a: gpr(8), out d: gpr) {
        d = curve[a];
    }",
        ],
    )
}

/// `absdiff`: unsigned absolute difference (`gcd` workload).
pub fn absdiff_ext() -> ExtensionSet {
    tie("absdiff", &[ABSDIFF])
}

/// `line`: Bresenham helpers for the `drawline` workload: unsigned
/// absolute difference plus a signed step selector.
///
/// * `absdiff d, a, b`
/// * `sgnsel d, a, b` — `+1` if `a < b` (signed), else `-1`
pub fn line_ext() -> ExtensionSet {
    tie(
        "line",
        &[
            ABSDIFF,
            "
    inst sgnsel(a: gpr, b: gpr, out d: gpr) {
        lt = lts(a, b);
        plus : 32 = 1;
        minus : 32 = 0xffffffff;
        d = mux(lt, plus, minus);
    }",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_hwlib::Category;

    fn exec1(set: &ExtensionSet, name: &str, rs: u32, rt: u32) -> u64 {
        let inst = set.by_name(name).expect("instruction exists");
        let mut state = set.initial_state();
        inst.execute(rs, rt, 0, &mut state)
            .expect("executes")
            .gpr
            .expect("writes gpr")
    }

    #[test]
    fn gfmul_matches_reference() {
        let set = gf16();
        for a in 0..16u32 {
            for b in 0..16u32 {
                assert_eq!(
                    exec1(&set, "gfmul", a, b) as u8,
                    gf::mul(a as u8, b as u8),
                    "{a}⊗{b}"
                );
            }
        }
    }

    #[test]
    fn gfmac_accumulates() {
        let set = gf16_mac();
        let mac = set.by_name("gfmac").unwrap();
        let rd = set.by_name("rdgacc").unwrap();
        let mut state = set.initial_state();
        let mut expected = 0u8;
        for (a, b) in [(3u8, 7u8), (5, 5), (12, 9), (1, 15)] {
            mac.execute(u32::from(a), u32::from(b), 0, &mut state)
                .unwrap();
            expected ^= gf::mul(a, b);
        }
        let got = rd.execute(0, 0, 0, &mut state).unwrap().gpr.unwrap();
        assert_eq!(got as u8, expected);
    }

    #[test]
    fn synstep_computes_syndromes() {
        // Feed a message of 6 symbols and compare against direct
        // polynomial evaluation S_i = Σ r_j α^(i·(n-1-j)).
        let msg = [3u8, 0, 7, 12, 1, 9];
        let set = rs_wide();
        let step = set.by_name("synstep").unwrap();
        let rd = set.by_name("rdsyn").unwrap();
        let mut state = set.initial_state();
        for &r in &msg {
            step.execute(u32::from(r), 0, 0, &mut state).unwrap();
        }
        let packed = rd.execute(0, 0, 0, &mut state).unwrap().gpr.unwrap();
        for i in 0..4 {
            let mut s = 0u8;
            for (j, &r) in msg.iter().enumerate() {
                let power = (i * (msg.len() - 1 - j)) % 15;
                s ^= gf::mul(r, gf::exp(power));
            }
            let lane = ((packed >> (4 * i)) & 0xf) as u8;
            assert_eq!(lane, s, "syndrome {i}");
        }
    }

    #[test]
    fn satmul_saturates() {
        let set = dsp16();
        assert_eq!(exec1(&set, "satmul", 100, 128), 100); // (100·128)>>7
        assert_eq!(exec1(&set, "satmul", 0xffff, 0xffff), 0xffff); // saturates
        assert_eq!(exec1(&set, "vshl", 1, 5), 32);
        assert_eq!(exec1(&set, "vshr", 32, 5), 1);
    }

    #[test]
    fn csa_multiplier_multiplies() {
        let set = csa_mult();
        let mstep = set.by_name("mstep").unwrap();
        let mres = set.by_name("mres").unwrap();
        let (a, b) = (0xbeefu32, 0x1234u32);
        let mut state = set.initial_state();
        for i in 0..16 {
            let bit = (b >> i) & 1;
            mstep.execute(a << i, bit, 0, &mut state).unwrap();
        }
        let out = mres.execute(0, 0, 0, &mut state).unwrap().gpr.unwrap();
        assert_eq!(out as u32, a.wrapping_mul(b));
    }

    #[test]
    fn tmul_halves() {
        let set = tmul16();
        let (a, b) = (0xabcdu32, 0x4321u32);
        let p = u64::from(a) * u64::from(b);
        assert_eq!(exec1(&set, "tmullo", a, b), p & 0xffff);
        assert_eq!(exec1(&set, "tmulhi", a, b), (p >> 16) & 0xffff);
    }

    #[test]
    fn wide64_parity() {
        let set = wide64();
        let wacc = set.by_name("wacc").unwrap();
        let wpar = set.by_name("wpar").unwrap();
        let mut state = set.initial_state();
        wacc.execute(0b101, 0, 0, &mut state).unwrap();
        // w = 0b101 | 0b101<<32: 4 ones → even parity.
        assert_eq!(wpar.execute(0, 0, 0, &mut state).unwrap().gpr.unwrap(), 0);
        wacc.execute(1, 0, 0, &mut state).unwrap();
        // toggles two bits → still even.
        assert_eq!(wpar.execute(0, 0, 0, &mut state).unwrap().gpr.unwrap(), 0);
        state[0] ^= 1;
        assert_eq!(wpar.execute(0, 0, 0, &mut state).unwrap().gpr.unwrap(), 1);
    }

    #[test]
    fn add4x8_is_lanewise() {
        let set = simd4();
        let a = 0xff_01_80_7f;
        let b = 0x01_02_80_01;
        let expected = u32::from_le_bytes([
            0x7fu8.wrapping_add(0x01),
            0x80u8.wrapping_add(0x80),
            0x01u8.wrapping_add(0x02),
            0xffu8.wrapping_add(0x01),
        ]);
        assert_eq!(exec1(&set, "add4x8", a, b) as u32, expected);
    }

    #[test]
    fn sortpair_orders() {
        let set = sortpair();
        let cmpx = set.by_name("cmpx").unwrap();
        let rdmin = set.by_name("rdmin").unwrap();
        let mut state = set.initial_state();
        let out = cmpx.execute(10, 42, 0, &mut state).unwrap();
        assert_eq!(out.gpr, Some(42));
        assert_eq!(rdmin.execute(0, 0, 0, &mut state).unwrap().gpr, Some(10));
        let out = cmpx.execute(42, 10, 0, &mut state).unwrap();
        assert_eq!(out.gpr, Some(42));
        assert_eq!(rdmin.execute(0, 0, 0, &mut state).unwrap().gpr, Some(10));
    }

    #[test]
    fn blend_interpolates() {
        let set = blend8();
        let setalpha = set.by_name("setalpha").unwrap();
        let blend = set.by_name("blend").unwrap();
        let mut state = set.initial_state();
        setalpha.execute(255, 0, 0, &mut state).unwrap();
        let out = blend.execute(200, 10, 0, &mut state).unwrap().gpr.unwrap();
        assert_eq!(out, (200 * 255) >> 8); // α=255 → (almost) all a
        setalpha.execute(0, 0, 0, &mut state).unwrap();
        let out = blend.execute(200, 10, 0, &mut state).unwrap().gpr.unwrap();
        assert_eq!(out, (10 * 255) >> 8);
        setalpha.execute(128, 0, 0, &mut state).unwrap();
        let out = blend.execute(100, 50, 0, &mut state).unwrap().gpr.unwrap();
        assert_eq!(out, (100 * 128 + 50 * 127) >> 8);
    }

    #[test]
    fn dsbox_substitutes() {
        let set = sbox12();
        let x = 0b101010_010101u32;
        let expected = des_sbox(0, 0b010101) | (des_sbox(1, 0b101010) << 4);
        assert_eq!(exec1(&set, "dsbox", x, 0), expected);
    }

    #[test]
    fn absdiff_and_sgnsel() {
        let set = line_ext();
        assert_eq!(exec1(&set, "absdiff", 10, 3), 7);
        assert_eq!(exec1(&set, "absdiff", 3, 10), 7);
        assert_eq!(exec1(&set, "sgnsel", 1, 5), 1);
        assert_eq!(exec1(&set, "sgnsel", 5, 1) as u32, u32::MAX);
    }

    #[test]
    fn mac2_dual_lanes() {
        let set = mac16x2();
        let mac2 = set.by_name("mac2").unwrap();
        let mut state = set.initial_state();
        // a = [hi=3, lo=10], b = [hi=7, lo=20]
        mac2.execute((3 << 16) | 10, (7 << 16) | 20, 0, &mut state)
            .unwrap();
        mac2.execute((1 << 16) | 2, (1 << 16) | 3, 0, &mut state)
            .unwrap();
        assert_eq!(state[0], 10 * 20 + 2 * 3);
        assert_eq!(state[1], 3 * 7 + 1);
    }

    #[test]
    fn library_covers_all_ten_categories() {
        let sets = [
            mac16(),
            mac16x2(),
            gf16(),
            gf16_mac(),
            rs_wide(),
            dsp16(),
            csa_mult(),
            tmul16(),
            wide64(),
            simd4(),
            sortpair(),
            blend8(),
            sbox12(),
            absdiff_ext(),
            line_ext(),
        ];
        let mut covered = [false; 10];
        for set in &sets {
            for inst in set {
                for (i, &r) in inst.resource_vector().iter().enumerate() {
                    if r > 0.0 {
                        covered[i] = true;
                    }
                }
            }
        }
        for (i, c) in covered.iter().enumerate() {
            assert!(c, "category {:?} not covered", Category::ALL[i]);
        }
    }
}
