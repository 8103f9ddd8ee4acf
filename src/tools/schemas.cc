#include "apps/bank.h"
#include "apps/document.h"
#include "apps/encyclopedia.h"
#include "containers/bptree.h"
#include "containers/directory.h"
#include "containers/escrow.h"
#include "containers/fifo_queue.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "tools/tools.h"

namespace oodb::tools {

bool RegisterSchema(const std::string& name, Database* db) {
  if (name == "bank") {
    Bank::RegisterMethods(db, BankSemantics::kEscrow);
    Bank::RegisterMethods(db, BankSemantics::kNameOnly);
    Bank::RegisterMethods(db, BankSemantics::kReadWrite);
  } else if (name == "document") {
    Document::RegisterMethods(db);
  } else if (name == "encyclopedia") {
    Encyclopedia::RegisterMethods(db);
  } else if (name == "containers") {
    RegisterQueueMethods(db);
    RegisterDirectoryMethods(db);
    RegisterAccountMethods(db, EscrowAccountType());
    RegisterAccountMethods(db, NameOnlyAccountType());
    RegisterAccountMethods(db, RWAccountType());
    RegisterPageMethods(db);
    BpTree::RegisterMethods(db);
    HashIndex::RegisterMethods(db);
  } else {
    return false;
  }
  return true;
}

}  // namespace oodb::tools
