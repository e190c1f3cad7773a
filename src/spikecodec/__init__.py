"""Spike-time codec toolkit: LIF encoder numerics, circuit simulation,
error model, decoder tuning, and a spiking Fourier transform.

The public names are those of the submodules' __all__ lists."""

from . import codec, errors, sft, signals, simulate, tuning
from .codec import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .sft import *  # noqa: F401,F403
from .signals import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .tuning import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (codec, errors, sft, signals, simulate, tuning)
                 for name in module.__all__)
