"""Relative compression of truncated PCA on clustered vector data.

The package measures how much more a truncated PCA projection shrinks
same-cluster distances than cross-cluster distances, verifies the
closed-form concentration bounds that predict this gap on synthetic
random-vector models, and compares raw versus post-PCA clustering.

Importing the package loads no submodule, so the command-line entry
point can pin BLAS thread counts before any numerical library loads;
import each submodule by name (``from pcacompress import bounds``).
"""

__version__ = "0.1.0"
