"""Guessing with side information: joint parsing and conditional coding.

When the guesser sees a correlated sequence y, the joint incremental parse
measures how much of x remains unexplained (u(x, y) = 0 when y determines
x), the conditional code approaches that measure, and the conditional
sampler guesses dramatically faster than the unconditional one.
"""

from lzguess import (Alphabet, BitSource, Guesser, SymbolSeq, cond_code,
                     cond_decode, cond_guess_prob, cond_sample,
                     generate_corpus, joint_parse, lz_guess_prob,
                     sandwich_sweep)

ab = Alphabet(("a", "b"))
x = SymbolSeq.from_text("abab", ab)
y = SymbolSeq.from_text("aaaa", ab)
jp = joint_parse(x, y)
print("x = %s against y = %s" % (x.render(), y.render()))
print("joint phrases  :", jp.c_xy, " distinct y-phrases:", len(jp.c_j),
      " counts:", jp.c_j, " u =", jp.u, "bits")

n = 4096
xb = generate_corpus("bernoulli", n, p=0.5, seed=7)
yb = generate_corpus("bernoulli", n, p=0.5, seed=8)

print("\nconditional code lengths at n = 4096 (bits/symbol):")
for label, (xx, yy) in {"y = x (copy)": (xb, xb),
                        "y independent": (xb, yb)}.items():
    code = cond_code(xx, yy)
    assert cond_decode(code, yy, n) == xx
    print("  %-14s u/n = %.4f   L(x|y)/n = %.4f"
          % (label, joint_parse(xx, yy).u / n, len(code) / n))

print("\nguessing exponents, zeta = 1 (bits/symbol):")
print("  unconditional       : %.4f" % (-lz_guess_prob(xb).log2() / n))
print("  conditional on y=x  : %.4f" % (-cond_guess_prob(xb, xb).log2() / n))
print("  conditional, indep y: %.4f" % (-cond_guess_prob(xb, yb).log2() / n))

# the same sandwich as for any guesser, on one that sees y
rep = sandwich_sweep(xb, [1.0], 2, Guesser("lz_full", xb.alphabet, n, side=yb),
                     ells=[4])[0]
print("\nconditional sandwich (independent y, ell=4, s=2):")
print("  converse(H) %.4f  converse(u) %.4f  measured %.4f  direct %.4f  %s"
      % (rep.converse_entropy, rep.converse_clogc, rep.measured, rep.direct,
         "ok" if rep.ordering_ok else "VIOLATED"))

short = generate_corpus("periodic", 12, pattern="ab")
print("\nthree conditional guesses at y = %s:" % short.render())
for k in range(3):
    g = cond_sample(short, 12, BitSource(5, substream=k))
    print("  ", g.render(), "(hit)" if g == short else "")
