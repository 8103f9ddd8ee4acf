#include "apps/bank.h"

#include <memory>
#include <utility>
#include <vector>

#include "model/type_registry.h"

namespace oodb {

namespace {

/// How an invocation touches one account.
enum class Touch { kRead, kDeposit, kWithdraw };

/// The (account, touch) footprint of a bank invocation. audit is handled
/// separately (it reads every account).
std::vector<std::pair<int64_t, Touch>> Footprint(const Invocation& inv) {
  std::vector<std::pair<int64_t, Touch>> out;
  if (inv.method == "transfer" && inv.params.size() >= 2) {
    out.push_back({inv.params[0].AsInt(), Touch::kWithdraw});
    out.push_back({inv.params[1].AsInt(), Touch::kDeposit});
  } else if (inv.method == "deposit" && !inv.params.empty()) {
    out.push_back({inv.params[0].AsInt(), Touch::kDeposit});
  } else if (inv.method == "withdraw" && !inv.params.empty()) {
    out.push_back({inv.params[0].AsInt(), Touch::kWithdraw});
  } else if (inv.method == "balance" && !inv.params.empty()) {
    out.push_back({inv.params[0].AsInt(), Touch::kRead});
  }
  return out;
}

bool IsMutator(const Invocation& inv) {
  return inv.method == "transfer" || inv.method == "deposit" ||
         inv.method == "withdraw";
}

bool IsBankOp(const Invocation& inv) {
  return IsMutator(inv) || inv.method == "balance" ||
         inv.method == "audit";
}

/// Do two touches on the *same* account commute under the variant?
bool TouchesCommute(BankSemantics semantics, Touch a, Touch b) {
  switch (semantics) {
    case BankSemantics::kEscrow:
      // Escrow: mutators commute with each other; exact reads conflict
      // with mutators.
      return !((a == Touch::kRead) != (b == Touch::kRead));
    case BankSemantics::kNameOnly:
      return (a == Touch::kDeposit && b == Touch::kDeposit) ||
             (a == Touch::kRead && b == Touch::kRead);
    case BankSemantics::kReadWrite:
      return a == Touch::kRead && b == Touch::kRead;
  }
  return false;
}

/// Parameter-aware bank commutativity: derived from the footprint on
/// shared accounts, per variant. Bank is composite (Def 5), so pass 6
/// keeps this spec as declared evidence; the account types it fans out
/// to are probed directly, where the name-only and read-write variants
/// show their deliberately lost concurrency (the escrow variant infers
/// exactly as declared).
class BankCommutativity : public CommutativitySpec {
 public:
  explicit BankCommutativity(BankSemantics semantics)
      : semantics_(semantics) {}

  bool Commutes(const Invocation& a, const Invocation& b) const override {
    if (!IsBankOp(a) || !IsBankOp(b)) return false;
    if (a.method == "audit" || b.method == "audit") {
      // audit reads every account: commutes only with reads.
      const Invocation& other = a.method == "audit" ? b : a;
      if (other.method == "audit" || other.method == "balance") return true;
      return false;
    }
    for (const auto& [acct_a, touch_a] : Footprint(a)) {
      for (const auto& [acct_b, touch_b] : Footprint(b)) {
        if (acct_a != acct_b) continue;
        if (!TouchesCommute(semantics_, touch_a, touch_b)) return false;
      }
    }
    return true;
  }

 private:
  BankSemantics semantics_;
};

Result<ObjectId> AccountAt(MethodContext& ctx, int64_t index) {
  ObjectId account = ctx.WithState<BankState>([&](BankState* s) {
    if (index < 0 || static_cast<size_t>(index) >= s->accounts.size()) {
      return ObjectId();
    }
    return s->accounts[index];
  });
  if (!account.valid()) {
    return Status::InvalidArgument("no account " + std::to_string(index));
  }
  return account;
}

Status BankTransfer(MethodContext& ctx, const ValueList& params,
                    Value* result) {
  if (params.size() < 3) {
    return Status::InvalidArgument("transfer needs from, to, amount");
  }
  OODB_ASSIGN_OR_RETURN(ObjectId from, AccountAt(ctx, params[0].AsInt()));
  OODB_ASSIGN_OR_RETURN(ObjectId to, AccountAt(ctx, params[1].AsInt()));
  // Withdraw first: the admissibility test refuses overdrafts atomically.
  OODB_RETURN_IF_ERROR(
      ctx.Call(from, Invocation("withdraw", {params[2]})));
  OODB_RETURN_IF_ERROR(ctx.Call(to, Invocation("deposit", {params[2]})));
  ctx.SetCompensation(
      Invocation("transfer", {params[1], params[0], params[2]}));
  *result = Value();
  return Status::OK();
}

Status BankDeposit(MethodContext& ctx, const ValueList& params,
                   Value* result) {
  if (params.size() < 2) {
    return Status::InvalidArgument("deposit needs account, amount");
  }
  OODB_ASSIGN_OR_RETURN(ObjectId account,
                        AccountAt(ctx, params[0].AsInt()));
  OODB_RETURN_IF_ERROR(
      ctx.Call(account, Invocation("deposit", {params[1]}), result));
  ctx.SetCompensation(Invocation("withdraw", {params[0], params[1]}));
  return Status::OK();
}

Status BankWithdraw(MethodContext& ctx, const ValueList& params,
                    Value* result) {
  if (params.size() < 2) {
    return Status::InvalidArgument("withdraw needs account, amount");
  }
  OODB_ASSIGN_OR_RETURN(ObjectId account,
                        AccountAt(ctx, params[0].AsInt()));
  OODB_RETURN_IF_ERROR(
      ctx.Call(account, Invocation("withdraw", {params[1]}), result));
  ctx.SetCompensation(Invocation("deposit", {params[0], params[1]}));
  return Status::OK();
}

Status BankBalance(MethodContext& ctx, const ValueList& params,
                   Value* result) {
  if (params.empty()) {
    return Status::InvalidArgument("balance needs an account");
  }
  OODB_ASSIGN_OR_RETURN(ObjectId account,
                        AccountAt(ctx, params[0].AsInt()));
  return ctx.Call(account, Invocation("balance"), result);
}

Status BankAudit(MethodContext& ctx, const ValueList&, Value* result) {
  std::vector<ObjectId> accounts =
      ctx.WithState<BankState>([](BankState* s) { return s->accounts; });
  int64_t total = 0;
  for (ObjectId account : accounts) {
    Value balance;
    OODB_RETURN_IF_ERROR(
        ctx.Call(account, Invocation("balance"), &balance));
    total += balance.AsInt();
  }
  *result = Value(total);
  return Status::OK();
}

}  // namespace

const char* BankSemanticsName(BankSemantics semantics) {
  switch (semantics) {
    case BankSemantics::kEscrow:
      return "escrow";
    case BankSemantics::kNameOnly:
      return "name-only";
    case BankSemantics::kReadWrite:
      return "read-write";
  }
  return "?";
}

const ObjectType* BankObjectType(BankSemantics semantics) {
  static const ObjectType* escrow = new ObjectType(
      "Bank(escrow)", std::make_unique<BankCommutativity>(
                          BankSemantics::kEscrow));
  static const ObjectType* name_only = new ObjectType(
      "Bank(name-only)", std::make_unique<BankCommutativity>(
                             BankSemantics::kNameOnly));
  static const ObjectType* rw = new ObjectType(
      "Bank(read-write)", std::make_unique<BankCommutativity>(
                              BankSemantics::kReadWrite));
  switch (semantics) {
    case BankSemantics::kEscrow:
      return escrow;
    case BankSemantics::kNameOnly:
      return name_only;
    case BankSemantics::kReadWrite:
      return rw;
  }
  return escrow;
}

const ObjectType* AccountTypeFor(BankSemantics semantics) {
  switch (semantics) {
    case BankSemantics::kEscrow:
      return EscrowAccountType();
    case BankSemantics::kNameOnly:
      return NameOnlyAccountType();
    case BankSemantics::kReadWrite:
      return RWAccountType();
  }
  return EscrowAccountType();
}

void Bank::RegisterMethods(Database* db, BankSemantics semantics) {
  TypeRegistry::Global().Register(BankObjectType(semantics));
  RegisterAccountMethods(db, AccountTypeFor(semantics));
  const ObjectType* type = BankObjectType(semantics);
  db->Register(type, "transfer", BankTransfer);
  db->Register(type, "deposit", BankDeposit);
  db->Register(type, "withdraw", BankWithdraw);
  db->Register(type, "balance", BankBalance);
  db->Register(type, "audit", BankAudit);

  // Schema traits. Bank methods only ever reach the matching account
  // variant; audit reads every account (hence its conflict with
  // mutators must be justified at the account layer too).
  const std::string acct = AccountTypeFor(semantics)->name();
  db->DeclareTraits(type, "transfer",
                    {.observer = false,
                     .calls = {{acct, "withdraw"}, {acct, "deposit"}},
                     .samples = {{Value(0), Value(1), Value(5)},
                                 {Value(2), Value(3), Value(7)}},
                     .compensations = {"transfer"}});
  db->DeclareTraits(type, "deposit",
                    {.observer = false,
                     .calls = {{acct, "deposit"}},
                     .samples = {{Value(0), Value(5)},
                                 {Value(1), Value(7)}},
                     .compensations = {"withdraw"}});
  db->DeclareTraits(type, "withdraw",
                    {.observer = false,
                     .calls = {{acct, "withdraw"}},
                     .samples = {{Value(0), Value(5)},
                                 {Value(1), Value(7)}},
                     .compensations = {"deposit"}});
  db->DeclareTraits(type, "balance",
                    {.observer = true,
                     .calls = {{acct, "balance"}},
                     .samples = {{Value(0)}, {Value(1)}},
                     .compensations = {}});
  db->DeclareTraits(type, "audit",
                    {.observer = true,
                     .calls = {{acct, "balance"}},
                     .samples = {{}},
                     .compensations = {}});
}

ObjectId Bank::Create(Database* db, const std::string& name,
                      BankSemantics semantics, size_t accounts,
                      int64_t initial_balance) {
  auto state = std::make_unique<BankState>();
  for (size_t i = 0; i < accounts; ++i) {
    state->accounts.push_back(
        CreateAccount(db, AccountTypeFor(semantics),
                      name + ".Account" + std::to_string(i),
                      initial_balance));
  }
  return db->CreateObject(BankObjectType(semantics), name,
                          std::move(state));
}

}  // namespace oodb
