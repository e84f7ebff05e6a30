"""The hot kernels: coefficient convolution and point evaluation.

One implementation, in numpy (``pykernels``); ``BACKEND`` names it and is
re-exported as ``toruslin.kernel_backend``.
"""

from .pykernels import BACKEND, cauchy_product, evaluate
