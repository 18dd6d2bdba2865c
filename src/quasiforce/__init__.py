"""Iterated graph doublings, homomorphism densities, and quasirandomness
checks over graphs and step graphons, with optimization experiments that
probe when matching a pair of densities forces near-constant structure.

Each module's ``__all__`` is its public API; the package re-exports them
all, in module order.
"""

from . import (density, errors, experiments, graphon, graphs, identities,
               quasirandom, sampling)
from .density import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .graphon import *  # noqa: F403
from .graphs import *  # noqa: F403
from .identities import *  # noqa: F403
from .quasirandom import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += graphs.__all__
__all__ += graphon.__all__
__all__ += density.__all__
__all__ += quasirandom.__all__
__all__ += identities.__all__
__all__ += experiments.__all__
__all__ += sampling.__all__
