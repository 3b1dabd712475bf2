"""Mutation harness: each mutant breaks one line that some test must catch.

Run from the repository root:

    python3 tests/mutants.py

The tree (`src/`, `tests/`, `perfbench/` and `pyproject.toml`) is copied once
to a temporary directory.  First every test file that some mutant names runs
there unmutated, every file to the end; if one fails, a kill would prove
nothing, so the script stops with exit 1 as a harness error.  Then each mutant
replaces one exact source fragment, runs its test files with `pytest -x`, and
is restored: one failing test is a kill, so the run stops there.  The script
prints one row per mutant with the number of failing tests, which reads 1 for
every killed mutant, and the test that killed it, the first to fail; it exits
nonzero if any mutant survives.  `test_source.py` requires every fragment to
occur exactly once in its file, so a refactor that moves the code has to move
its mutant too.

Equivalent mutants change no value, so no test can kill them, and they are
not listed: dropping the `np.add.at` branch of `fields.trace_hist` only
changes speed, because the bincount branch adds the same counts.  The
semiprimitive table needs no shift: l | t makes k_l = 0, and k_{s/d} and k_u
are both 0 or both nonzero and cancel in the j0 test.  So the shift mutant
below sits in the monomial lemma, which is test code in `tests/reference.py`
since no count route reads it; the tests that check the lemma against the
package's monomial sums kill it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "cubic pi without sqrt(-3) = 1 + 2 zeta_3",
        "src/polycount/jacobi.py",
        "CycInt(3, (self.a3 + self.b3, 2 * self.b3, 0))",
        "CycInt(3, (self.a3, self.b3, 0))",
        ("tests/test_jacobi.py", "tests/test_counting.py"),
    ),
    Mutant(
        "twice_real as z + z",
        "src/polycount/cyclotomic.py",
        "(self + self.conjugate()).expect_integer",
        "(self + self).expect_integer",
        ("tests/test_cyclotomic.py", "tests/test_counting.py"),
    ),
    Mutant(
        "-i0 in the s = 4, a = 0, (d, l) = (1, 4) row",
        "src/polycount/counting.py",
        "re2 = (pi ** (t // 2) * CycInt.root(4, i0)).twice_real()\n"
        "                val = Fraction(\n"
        "                    p ** (t - 1) - 1 - sign_i0",
        "re2 = (pi ** (t // 2) * CycInt.root(4, -i0)).twice_real()\n"
        "                val = Fraction(\n"
        "                    p ** (t - 1) - 1 - sign_i0",
        ("tests/test_golden.py", "tests/test_identities.py"),
    ),
    Mutant(
        "sign of rho_w in m_t_general",
        "src/polycount/counting.py",
        "taus - rot[b : b + block, None]",
        "(taus + rot[b : b + block, None]) % p",
        ("tests/test_counting.py",),
    ),
    Mutant(
        "m_t_general reads rho_w one column too high",
        "src/polycount/counting.py",
        "rot = tower.base_traces[shift : shift + q - 1]",
        "rot = tower.base_traces[shift : shift + q - 1] + 1",
        ("tests/test_counting.py",),
    ),
    Mutant(
        "packed CycInt power: B without the + 2",
        "src/polycount/cyclotomic.py",
        "bit_length() + 2",
        "bit_length()",
        ("tests/test_cyclotomic.py",),
    ),
    Mutant(
        "packed CycInt power: decode skips the negative-digit correction",
        "src/polycount/cyclotomic.py",
        "if d >> (B - 1):",
        "if False:",
        ("tests/test_cyclotomic.py",),
    ),
    Mutant(
        "the integer read skips the equal-coefficients check",
        "src/polycount/cyclotomic.py",
        "if rest.count(c1) != len(rest):",
        "if False:",
        ("tests/test_counting.py", "tests/test_cyclotomic.py"),
    ),
    Mutant(
        "the index-2 real part skips the odd sqrt(2) grading refusal",
        "src/polycount/catalog.py",
        "if j % 2:",
        "if False:",
        ("tests/test_catalog.py", "tests/test_cyclotomic.py"),
    ),
    Mutant(
        "the index-2 power's sqrt(2) exponent read as k, not k e",
        "src/polycount/catalog.py",
        "j = sqrt2_extra - k * e",
        "j = sqrt2_extra - k",
        ("tests/test_catalog.py", "tests/test_cyclotomic.py"),
    ),
    Mutant(
        "twist sign in _character_sum",
        "src/polycount/counting.py",
        "step, shift = k * (n // d), -c * x",
        "step, shift = k * (n // d), c * x",
        ("tests/test_counting.py",),
    ),
    Mutant(
        "trace_hist labels every block from offset 0",
        "src/polycount/fields.py",
        "offset = start % g",
        "offset = 0",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "monomial_sum reads class i mod g in every block",
        "src/polycount/charsums.py",
        "traces[(i - start) % g :: g]",
        "traces[i % g :: g]",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "g_log_inv without the inverse",
        "src/polycount/fields.py",
        "pow(log_g, -1, n)",
        "pow(log_g, 1, n)",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "brute_scan labels with canonical logs",
        "src/polycount/oracle.py",
        "logs * g_log_inv % n",
        "logs % n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "semiprimitive monomial shift always 0",
        "tests/reference.py",
        "k_s = s // 2 if",
        "k_s = 0 if",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "class counts without the sum-0 term B_k",
        "src/polycount/charsums.py",
        "a, b = b + folded,",
        "a, b = folded,",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "class counts read k log(1 - y) as log(1 - y)",
        "src/polycount/charsums.py",
        "(log_y + k * log_1my) % n",
        "(log_y + log_1my) % n",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "class counts read (k + 1) as k in the B recurrence",
        "src/polycount/charsums.py",
        "g = math.gcd(k + 1, n)",
        "g = math.gcd(k, n)",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "the embedding's left inverse writes ops to the first r rows",
        "src/polycount/fields.py",
        "inverse[pivots] = ops",
        "inverse[:r] = ops",
        ("tests/test_embedding.py",),
    ),
    Mutant(
        "gauss_sum drops the power k",
        "src/polycount/charsums.py",
        "(k * np.arange(n) % n * p)",
        "(np.arange(n) % n * p)",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "gauss_sum_folded drops the power k",
        "src/polycount/charsums.py",
        "np.add.at(coeffs, k * np.arange(n) % n, hist[:, 0] - hist[:, 1])",
        "np.add.at(coeffs, np.arange(n) % n, hist[:, 0] - hist[:, 1])",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "CycInt.galois sends zeta to zeta^-k",
        "src/polycount/cyclotomic.py",
        "v[e * k % L] = c",
        "v[e * -k % L] = c",
        ("tests/test_cyclotomic.py",),
    ),
    Mutant(
        "parity_blocks counts the last giant row in full",
        "src/polycount/fields.py",
        "valid = min(len(v) * big_b, length - b * big_b)",
        "valid = len(v) * big_b",
        ("tests/test_oracle.py", "tests/test_fields.py"),
    ),
    Mutant(
        "packed odd-p slot one bit narrower",
        "src/polycount/polyfp.py",
        "sw = (top * mp).bit_length()",
        "sw = (top * mp).bit_length() - 1",
        ("tests/test_field_arithmetic.py",),
    ),
    Mutant(
        "packed odd-p fold table read at x^(r + j + 1)",
        "src/polycount/polyfp.py",
        "x_pow[j], p)) for j in range(r - 1)",
        "x_pow[j + 1], p)) for j in range(r - 1)",
        ("tests/test_field_arithmetic.py",),
    ),
    Mutant(
        "p = 2 word product's reduction loop skips its top bit",
        "src/polycount/fields.py",
        "for _ in range(1, r):\n                images.append",
        "for _ in range(1, r - 1):\n                images.append",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "orbit_blocks Horner's rule with the lowest digit first",
        "src/polycount/fields.py",
        "for c in range(k - 1, -1, -1):",
        "for c in range(k):",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "orbit_blocks reduces a dot product to (digit + 1) % p",
        "src/polycount/fields.py",
        "np.tile(np.arange(p), bound // p + 1)",
        "np.tile(np.arange(1, p + 1) % p, bound // p + 1)",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "the root sieve skips the first survivor of a chunk",
        "src/polycount/polyfp.py",
        "(np.flatnonzero(~rooted) + start * p).tolist()",
        "(np.flatnonzero(~rooted) + start * p).tolist()[1:]",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "Ben-Or over odd F_p one step short",
        "src/polycount/polyfp.py",
        "for _ in range(t // 2):",
        "for _ in range(t // 2 - 1):",
        ("tests/test_intmath.py",),
    ),
    Mutant(
        "the F_p gcd drops its leading-coefficient inverse",
        "src/polycount/polyfp.py",
        "inv, d = pow(b[-1], -1, p), len(b) - 1",
        "inv, d = 1, len(b) - 1",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "the listing's exact-degree check tests only the first prime of m",
        "src/polycount/oracle.py",
        "subfield_contains(root, m // ell) for ell in factorize(m)",
        "subfield_contains(root, m // ell) for ell in list(factorize(m))[:1]",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "the listing reads the trace coefficient at x^{m-2}",
        "src/polycount/oracle.py",
        "if coeffs[m - 1] != (-spec.a).index:",
        "if coeffs[m - 2] != (-spec.a).index:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "the listing reads the norm as the constant term, without its (-1)^m",
        "src/polycount/oracle.py",
        "const if m % 2 == 0 else -const",
        "const",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "beta read as g^e0, not its first conjugate along the powers of g",
        "src/polycount/fields.py",
        "return min(e0 * p**i % n for i in range(r))",
        "return e0",
        ("tests/test_embedding.py",),
    ),
    Mutant(
        "beta's e0 taken as log(X) * u0, not log(X) / u0",
        "src/polycount/fields.py",
        "e0 = int(logs[p]) * pow(int(roots[0]), -1, n) % n",
        "e0 = int(logs[p]) * int(roots[0]) % n",
        ("tests/test_embedding.py",),
    ),
    Mutant(
        "the beta search skips its enumeration cap",
        "src/polycount/fields.py",
        'check_cap(self.q, None, f"the log table of F_{self.q} for its embedding")',
        "pass",
        ("tests/test_embedding.py",),
    ),
    Mutant(
        "the field's group order leaves out Phi_1(p) = p - 1",
        "src/polycount/fields.py",
        "for d in divisors(self.r):",
        "for d in divisors(self.r)[1:]:",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "the order-check chain drops the smallest prime",
        "src/polycount/fields.py",
        "exps = [n // l for l in primes]",
        "exps = [n // l for l in primes[1:]]",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "the generator search starts at p + 1",
        "src/polycount/fields.py",
        "range(self.p if self.r > 1 else 1, self.order)",
        "range(self.p + 1 if self.r > 1 else 1, self.order)",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "orbit_blocks' narrow dtype one bit too small",
        "src/polycount/fields.py",
        "dtype = np.min_scalar_type(bound)",
        "dtype = np.min_scalar_type(bound >> 1)",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "brute_scan drops the gcd(m, q - 1) factor of the trace-0 cosets",
        "src/polycount/oracle.py",
        ".sum(axis=1) * c, n // c)",
        ".sum(axis=1), n // c)",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "brute_scan writes subfield degrees from offset 0 in every block",
        "src/polycount/oracle.py",
        "sub = bucket[-start % stride :: stride]",
        "sub = bucket[::stride]",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "cell takes its window start mod q - 1",
        "src/polycount/oracle.py",
        "start = int(self.cols[a_index])",
        "start = int(self.cols[a_index]) % (len(self.cols) - 1)",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "cell reads its row from the full counts table",
        "src/polycount/oracle.py",
        "row = self.source[self.divs.index(exact_degree), start : start + len(self.cols) - 1]",
        "row = self.counts[self.divs.index(exact_degree), a_index]",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "brute_scan walks R - 1 coset representatives",
        "src/polycount/oracle.py",
        "tower.base_trace_form(), big_q // n)",
        "tower.base_trace_form(), big_q // n - 1)",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "check_cap refuses at size == cap",
        "src/polycount/fields.py",
        "    if size > cap:\n",
        "    if size >= cap:\n",
        ("tests/test_charsums.py",),
    ),
    Mutant(
        "the oracle-cap default read from the environment when the parser is built",
        "src/polycount/cli.py",
        'oracle_cap.add_argument("--oracle-cap", type=int, default=None,',
        'oracle_cap.add_argument("--oracle-cap", type=int, default=_env_cap("POLYCOUNT_ORACLE_CAP", DEFAULT_ORACLE_CAP),',
        ("tests/test_cli.py",),
    ),
]


def _failing(tree: Path, tests, first: bool = False) -> list[str]:
    """Run the test files in tree, stopping at the first failure if first; return the failing test ids."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *(["-x"] if first else []), *tests],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode != 0 and not failed:
        failed = [f"pytest exit {proc.returncode}"]
    return failed


def _run(tree: Path, mutant: Mutant) -> list[str]:
    """Apply mutant in tree, run its tests, restore; return the failing test ids."""
    path = tree / mutant.file
    source = path.read_text()
    if source.count(mutant.fragment) != 1:
        raise SystemExit(f"{mutant.name}: fragment does not occur exactly once in {mutant.file}")
    path.write_text(source.replace(mutant.fragment, mutant.replacement))
    try:
        return _failing(tree, mutant.tests, first=True)
    finally:
        path.write_text(source)


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="polycount-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
        start = time.perf_counter()
        tests = sorted({name for mutant in MUTANTS for name in mutant.tests})
        failed = _failing(tree, tests)
        print(f"unmutated\t{len(failed)}\t{time.perf_counter() - start:.1f}\t{' '.join(tests)}", flush=True)
        if failed:
            print(f"harness error: {failed[0]} (+{len(failed) - 1} more) fails on the unmutated tree", file=sys.stderr)
            return 1
        print("mutant\tkilled\tseconds\tkilled_by")
        for mutant in MUTANTS:
            start = time.perf_counter()
            failed = _run(tree, mutant)
            seconds = time.perf_counter() - start
            survivors += not failed
            killed_by = failed[0] if failed else "SURVIVED"
            print(f"{mutant.name}\t{len(failed)}\t{seconds:.1f}\t{killed_by}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
