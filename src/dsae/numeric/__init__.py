"""Numeric building blocks of the models: the batched CRF layer
(``kernels``), Adam and L-BFGS (``optim``), flat parameter vectors
(``params``) and the seeded random stream (``rng``)."""
