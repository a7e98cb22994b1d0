"""HPP lattice-gas block cipher and experiment harness."""

from .cipher import (
    CipherContainer,
    CipherParams,
    decrypt_block,
    decrypt_stream,
    default_rounds,
    derive_walls,
    encrypt_block,
    encrypt_stream,
    keyspace_count,
    ones_density,
)
from .errors import FormatError, HppError, ParameterError
from .lattice import Lattice, block_size, from_bytes, to_bytes

__version__ = "0.1.0"

__all__ = [
    "CipherContainer",
    "CipherParams",
    "FormatError",
    "HppError",
    "Lattice",
    "ParameterError",
    "block_size",
    "decrypt_block",
    "decrypt_stream",
    "default_rounds",
    "derive_walls",
    "encrypt_block",
    "encrypt_stream",
    "from_bytes",
    "keyspace_count",
    "ones_density",
    "to_bytes",
    "__version__",
]
