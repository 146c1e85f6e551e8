"""Clean: blocking Send returns only after the matching delivery, so
the ping-pong reuse of the same buffer is the sanctioned pattern (this
is the MPI latency probe's idiom — guard against re-flagging it)."""


def pingpong(comm, buf, peer, rounds):
    for _ in range(rounds):
        comm.Send(buf, dest=peer)
        comm.Recv(buf, source=peer)
    return buf
