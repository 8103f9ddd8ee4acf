#include "workload/paper_worlds.h"

#include <string>

#include "apps/encyclopedia.h"
#include "util/random.h"

namespace oodb {

ObjectId CreateExample4World(Database* db) {
  Encyclopedia::RegisterMethods(db);
  return Encyclopedia::Create(db, "Enc", 8, 8, 4);
}

Status RunExample4(Database* db) {
  const ObjectId enc = CreateExample4World(db);
  Status first;
  auto run = [&](const char* label, const TransactionBody& body) {
    Status st = db->RunTransaction(label, body);
    if (first.ok()) first = st;
  };
  run("T1", [&](MethodContext& txn) {
    return txn.Call(enc, Encyclopedia::Insert("DBS", "database systems"));
  });
  run("T2", [&](MethodContext& txn) {
    OODB_RETURN_IF_ERROR(
        txn.Call(enc, Encyclopedia::Insert("DBMS", "dbms v1")));
    return txn.Call(enc, Encyclopedia::Change("DBMS", "dbms v2"));
  });
  run("T3", [&](MethodContext& txn) {
    Value out;
    return txn.Call(enc, Encyclopedia::Search("DBS"), &out);
  });
  run("T4", [&](MethodContext& txn) {
    Value out;
    return txn.Call(enc, Encyclopedia::ReadSeq(), &out);
  });
  return first;
}

ObjectId CreateMixWorld(Database* db) {
  Encyclopedia::RegisterMethods(db);
  return Encyclopedia::Create(db, "Enc", 16, 16, 4);
}

TxnFactory EncyclopediaMix(ObjectId enc) {
  return [enc](size_t thread, size_t index) -> TransactionBody {
    return [enc, thread, index](MethodContext& txn) -> Status {
      Rng rng(thread * 7919 + index);
      std::string key = "K" + std::to_string(rng.NextBelow(64));
      switch (rng.NextBelow(10)) {
        case 0:
          return txn.Call(enc, Encyclopedia::ReadSeq());
        case 1:
        case 2: {
          Value out;
          return txn.Call(enc, Encyclopedia::Search(key), &out);
        }
        case 3:
        case 4:
        case 5: {
          Status st = txn.Call(
              enc, Encyclopedia::Change(key, "v" + std::to_string(index)));
          return st.IsNotFound() ? Status::OK() : st;
        }
        default: {
          Status st = txn.Call(
              enc, Encyclopedia::Insert(key, "d" + std::to_string(index)));
          return st.code() == StatusCode::kAlreadyExists ? Status::OK() : st;
        }
      }
    };
  };
}

}  // namespace oodb
