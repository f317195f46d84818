"""Prime-square-order Cayley graphs on cyclic groups of order a²b²c².

The modules are the API, and the package re-exports nothing: `group` checks
the prime triple, `connectors` lists the elements of squared-prime order,
`graph` builds the circulant, `parameters`, `structure` and `hamiltonian`
certify its parameters, `oracles` re-checks them by brute force, `report`
renders `params` and `verify`, and `cli` runs the commands.
"""

__version__ = "0.1.0"
