// The built-in worlds the `oodb` tool, the figure benches and the
// golden tests run: the paper's Example 4 (the schedule behind Figs 7
// and 8) and a contended encyclopedia mix.

#pragma once

#include "cc/database.h"
#include "workload/harness.h"

namespace oodb {

/// Registers the encyclopedia and creates Example 4's "Enc" (fan-outs
/// 8/8, 4 items per page: small enough for the Fig 7 page collisions).
ObjectId CreateExample4World(Database* db);

/// Creates the world, then runs the four transactions of Example 4 one
/// after the other: T1 inserts DBS, T2 inserts DBMS and changes it, T3
/// searches DBS, T4 reads the sequence. All four run; returns the first
/// failure.
Status RunExample4(Database* db);

/// Registers the encyclopedia and creates the mix's "Enc" (fan-outs
/// 16/16, 4 items per page).
ObjectId CreateMixWorld(Database* db);

/// The contended mix over 64 keys: 10% readSeq, 20% search, 30% change,
/// 40% insert, seeded by (thread, index). Changing a key nobody inserted
/// yet and inserting one twice are benign misses, not failures.
TxnFactory EncyclopediaMix(ObjectId enc);

}  // namespace oodb
