#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"

namespace check {

/// The transport invariant of the distributed sweep (dls::net),
/// replayed from the coordinator's lease-event log like
/// check/dist.hpp's.  It returns std::nullopt when the invariant holds
/// and a human-readable account of the first violation otherwise;
/// `dls_check leases` runs it alongside lease exclusivity.  It
/// tolerates coordinator restarts (seq moving backward resets the
/// replay).

/// "hello_before_lease": no lease is ever granted to a worker that has
/// not completed the HELLO handshake -- an unauthenticated link must
/// never touch the lease table.  Applies to every `spawn`, forked or
/// accepted (detail "accept"): each resets that worker's handshake
/// state, so a reconnecting client must HELLO again.
[[nodiscard]] std::optional<std::string> check_hello_before_lease(
    const std::vector<dist::LeaseEvent>& events);

}  // namespace check
