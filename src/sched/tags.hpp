// Reserved message-tag allocation for the scheduling subsystem.
//
// Every scheduler speaks over ordinary user-range tags, so injected
// message faults (drop/dup/delay) apply to protocol traffic exactly like
// application traffic — that is what the fault-tolerant protocols'
// sequence numbers and resends absorb. To keep the reservation honest,
// all scheduler tags are allocated from one contiguous block through
// reserved_tag(), which range-checks at compile time: a new tag cannot
// silently collide with application tags, another scheduler's tags, or
// the transport-internal tags above fault::kUserTagLimit.
//
// Applications must not send on tags inside
// [kReservedTagBase, kReservedTagLimit).
#pragma once

#include "fault/fault.hpp"

namespace mrbio::sched {

/// First tag of the scheduler-reserved block.
inline constexpr int kReservedTagBase = 990000;
/// One past the last reservable tag; the block holds 100 slots.
inline constexpr int kReservedTagLimit = 990100;

static_assert(kReservedTagBase > 0, "reserved block must be in the user range");
static_assert(kReservedTagLimit <= fault::kUserTagLimit,
              "reserved scheduler tags must stay below the transport-internal "
              "tag range so collectives and sleep timers never alias them");

/// True for tags the scheduling subsystem has reserved for itself.
constexpr bool is_reserved_tag(int tag) {
  return tag >= kReservedTagBase && tag < kReservedTagLimit;
}

/// Allocates slot `slot` of the reserved block. Out-of-range slots fail to
/// compile when used in a constexpr context (all uses below are).
constexpr int reserved_tag(int slot) {
  return (slot >= 0 && kReservedTagBase + slot < kReservedTagLimit)
             ? kReservedTagBase + slot
             : throw "scheduler tag outside the reserved block";
}

// --- master-worker protocols (plain and fault-tolerant) ---
constexpr int kTagTask = reserved_tag(1);  ///< master -> worker: grant / task id
constexpr int kTagDone = reserved_tag(2);  ///< worker -> master: request / report

// --- work-stealing protocol ---
constexpr int kTagSteal = reserved_tag(3);      ///< thief -> victim: steal request
constexpr int kTagStealResp = reserved_tag(4);  ///< victim -> thief: stolen batch
constexpr int kTagToken = reserved_tag(5);      ///< termination token (ring)
constexpr int kTagStop = reserved_tag(6);       ///< rank 0 -> all: leave the map

// --- sharded-ledger protocol (steal-ft) ---
constexpr int kTagObit = reserved_tag(7);      ///< dying rank -> all: death notice
constexpr int kTagObitAck = reserved_tag(8);   ///< peer -> dying rank: obit ack
constexpr int kTagExit = reserved_tag(9);      ///< worker -> owners: done mapping
constexpr int kTagExitAck = reserved_tag(10);  ///< owner -> worker: exit ack
constexpr int kTagShardImage = reserved_tag(11);  ///< dying owner -> successor
constexpr int kTagWake = reserved_tag(12);  ///< owner -> parked asker: re-ask now

static_assert(is_reserved_tag(kTagTask) && is_reserved_tag(kTagWake));

}  // namespace mrbio::sched
