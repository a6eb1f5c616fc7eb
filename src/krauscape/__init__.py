"""Control-landscape toolkit for two-level open quantum systems.

Kraus maps on a qubit, their Stiefel-manifold parameter space, the
transfer objective's exact critical structure (values, constructors,
Morse signatures), Riemannian optimization, and level-set connectivity
tracing, with a deterministic CLI for artifacts.

The public names are those of each module's ``__all__``, listed there
once.
"""

from . import analysis, landscape, qcore, stiefel
from .qcore import *  # noqa: F401,F403
from .stiefel import *  # noqa: F401,F403
from .landscape import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*qcore.__all__, *stiefel.__all__, *landscape.__all__, *analysis.__all__,
           "__version__"]
