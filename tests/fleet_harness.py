"""A one-cell grid for scoring-service tests.

The scoring service runs one protocol, the lease loop: it serves until
its coordinator's grid is drained and every client it has seen has
signed off or been declared lost.  Tests that exercise scoring rather
than leasing give the service a grid of one cell, and each client
settles that cell as it signs off, so ``serve()`` returns exactly when
the last client is done -- whatever the thread interleaving.
"""

from repro.serving import CellCoordinator, CellDone, ClientDone

#: The only cell of :func:`one_cell_grid`.
CELL = 0


def one_cell_grid() -> CellCoordinator:
    return CellCoordinator([CELL])


def sign_off(channel, client_id: int) -> None:
    """Settle the grid's cell, then sign ``client_id`` off.

    ``channel`` is anything with ``put``: a request queue or a
    :class:`~repro.serving.TcpWorkerChannel`.  A second client settling
    the same cell is a harmless duplicate completion.
    """
    channel.put(CellDone(client_id=client_id, cell_id=CELL))
    channel.put(ClientDone(client_id=client_id))
