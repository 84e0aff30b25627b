"""Guessing individual sequences with finite-state machines.

Randomized guessers driven by fair bits: LZ78-dictionary samplers (full and
block-restarted), exact guessing-moment evaluation, executable finite-state
guessing machines with exact output laws, finite-n converse/direct bound
calculators, and the side-information variants of all of the above.
"""

__version__ = "0.1.0"

from .seqcore import (Alphabet, BitSource, DyadicProb, SymbolSeq,
                      generate_corpus, ingest)
from .lz78 import (ParseResult, ParseTrie, c_max_oracle, decode, encode,
                   incremental_parse)
from .fsgm import (FSGMSpec, RunTrace, TreeFSGMSpec, build_fig1_machine,
                   expand_tree_machine, output_distribution, run,
                   sequence_prob)
from .guessers import (Guesser, MomentEstimate, block_guess_prob,
                       compile_block_guesser_to_fsgm, lz_guess_prob,
                       lz_sample, moment_exact, moment_grid,
                       moment_lower_bound, run_game)
from .bounds import (BoundReport, K_of_ell, block_entropy, converse_clogc,
                     converse_entropy, direct_clogc, epsilon_lz, epsilon_n,
                     rho_upper, sandwich, sandwich_sweep)
from .sideinfo import (JointParseResult, cond_code, cond_decode,
                       cond_guess_prob, cond_sample, joint_parse)
