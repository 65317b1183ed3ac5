//! Identification of UID-carrying and UID-influenced data.
//!
//! The paper (§4) describes two ways to find the data the variation must
//! transform: the declared `uid_t`/`gid_t` types when the programmer used
//! them strictly, and a Splint-style dataflow analysis (variables that store
//! the result of `getuid`-like functions or flow into `setuid`-like
//! parameters) when they did not. Both are implemented here, along with a
//! *taint* analysis that finds data merely *influenced* by UID values — the
//! data whose conditionals the `cond_chk` pass must expose.

use nvariant_vm::ast::{Expr, Function, LValue, Program, Stmt, Type};
use nvariant_vm::typecheck::{builtin_signature, typecheck_program, TypeInfo};
use std::collections::{BTreeMap, BTreeSet};

/// Everything the transformation passes need to know about which data is
/// UID-class and which data is UID-influenced.
///
/// # Example
///
/// ```
/// use nvariant_transform::UidContext;
/// use nvariant_vm::parse_program;
///
/// let program = parse_program(r#"
///     var cached: int;            // declared int, but holds a UID
///     fn main() -> int {
///         var rc: int;
///         cached = getuid();      // dataflow inference marks `cached`
///         rc = setuid(cached);    // rc is UID-influenced (tainted)
///         if (rc != 0) { return 1; }
///         return 0;
///     }
/// "#)?;
/// let ctx = UidContext::analyze(&program)?;
/// assert!(ctx.is_uid_var("main", "cached"));
/// assert!(!ctx.is_uid_var("main", "rc"));
/// assert!(ctx.is_tainted("main", "rc"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UidContext {
    type_info: TypeInfo,
    /// Globals known to hold UID-class values (declared or inferred).
    uid_globals: BTreeSet<String>,
    /// Per-function locals/params known to hold UID-class values.
    uid_locals: BTreeMap<String, BTreeSet<String>>,
    /// User functions whose return value is UID-class.
    uid_functions: BTreeSet<String>,
    /// Globals whose values are influenced by UID data.
    tainted_globals: BTreeSet<String>,
    /// Per-function locals whose values are influenced by UID data.
    tainted_locals: BTreeMap<String, BTreeSet<String>>,
    /// User functions whose result is influenced by UID data (they return a
    /// tainted expression or perform UID-taking operations in their body).
    tainted_functions: BTreeSet<String>,
}

impl UidContext {
    /// Runs type checking, UID inference and taint analysis over a program.
    ///
    /// # Errors
    ///
    /// Returns the underlying type error if the program does not check.
    pub fn analyze(program: &Program) -> Result<Self, nvariant_vm::TypeError> {
        let type_info = typecheck_program(program)?;
        let mut ctx = UidContext {
            type_info,
            ..UidContext::default()
        };
        ctx.seed_declared_types(program);
        ctx.infer_fixpoint(program);
        ctx.taint_fixpoint(program);
        Ok(ctx)
    }

    /// The type information computed for the program.
    #[must_use]
    pub fn type_info(&self) -> &TypeInfo {
        &self.type_info
    }

    fn seed_declared_types(&mut self, program: &Program) {
        for global in &program.globals {
            if global.ty.is_uid_class() {
                self.uid_globals.insert(global.name.clone());
            }
        }
        for function in &program.functions {
            let mut locals = BTreeSet::new();
            if let Some(table) = self.type_info.locals.get(&function.name) {
                for (name, ty) in table {
                    if ty.is_uid_class() {
                        locals.insert(name.clone());
                    }
                }
            }
            self.uid_locals.insert(function.name.clone(), locals);
            if function.ret.is_uid_class() {
                self.uid_functions.insert(function.name.clone());
            }
        }
    }

    /// Returns `true` if `name`, referenced from `function`, holds UID-class
    /// data (by declaration or by inference).
    #[must_use]
    pub fn is_uid_var(&self, function: &str, name: &str) -> bool {
        if let Some(locals) = self.uid_locals.get(function) {
            if locals.contains(name) {
                return true;
            }
        }
        // A local declaration shadows a global of the same name.
        if self
            .type_info
            .locals
            .get(function)
            .is_some_and(|l| l.contains_key(name))
        {
            return false;
        }
        self.uid_globals.contains(name)
    }

    /// Returns `true` if the named user function returns UID-class data.
    #[must_use]
    pub fn is_uid_function(&self, name: &str) -> bool {
        if self.uid_functions.contains(name) {
            return true;
        }
        builtin_signature(name).is_some_and(|sig| sig.ret.is_uid_class())
    }

    /// Returns `true` if an expression denotes UID-class data.
    #[must_use]
    pub fn is_uid_expr(&self, function: &str, expr: &Expr) -> bool {
        match expr {
            Expr::Ident(name) => self.is_uid_var(function, name),
            Expr::Call(name, _) => self.is_uid_function(name),
            Expr::Unary(_, inner) => self.is_uid_expr(function, inner),
            Expr::Binary(op, lhs, rhs) => {
                !op.is_comparison()
                    && !matches!(
                        op,
                        nvariant_vm::ast::BinOp::LogAnd | nvariant_vm::ast::BinOp::LogOr
                    )
                    && (self.is_uid_expr(function, lhs) || self.is_uid_expr(function, rhs))
            }
            _ => false,
        }
    }

    /// Returns `true` if `name` is influenced by UID data (tainted) in
    /// `function`. UID-class variables themselves are always considered
    /// influenced.
    #[must_use]
    pub fn is_tainted(&self, function: &str, name: &str) -> bool {
        if self.is_uid_var(function, name) {
            return true;
        }
        if let Some(locals) = self.tainted_locals.get(function) {
            if locals.contains(name) {
                return true;
            }
        }
        if self
            .type_info
            .locals
            .get(function)
            .is_some_and(|l| l.contains_key(name))
        {
            return false;
        }
        self.tainted_globals.contains(name)
    }

    /// Returns `true` if an expression contains UID-influenced data anywhere
    /// inside it.
    #[must_use]
    pub fn is_tainted_expr(&self, function: &str, expr: &Expr) -> bool {
        match expr {
            Expr::Ident(name) => self.is_tainted(function, name),
            Expr::IntLit(_) | Expr::StrLit(_) | Expr::AddrOf(_) => false,
            Expr::Unary(_, inner) | Expr::Deref(inner) => self.is_tainted_expr(function, inner),
            Expr::Index(base, index) => {
                self.is_tainted_expr(function, base) || self.is_tainted_expr(function, index)
            }
            Expr::Binary(_, lhs, rhs) => {
                self.is_tainted_expr(function, lhs) || self.is_tainted_expr(function, rhs)
            }
            Expr::Call(name, args) => {
                self.is_uid_function(name)
                    || self.call_takes_uid_args(name)
                    || self.tainted_functions.contains(name)
                    || args.iter().any(|a| self.is_tainted_expr(function, a))
            }
        }
    }

    /// Returns `true` if the named user function's result is UID-influenced.
    #[must_use]
    pub fn is_tainted_function(&self, name: &str) -> bool {
        self.tainted_functions.contains(name)
            || self.is_uid_function(name)
            || self.call_takes_uid_args(name)
    }

    /// Returns `true` if a call to `name` takes UID-class parameters (so its
    /// result — e.g. the return code of `setuid` — is UID-influenced).
    #[must_use]
    pub fn call_takes_uid_args(&self, name: &str) -> bool {
        let sig = self
            .type_info
            .functions
            .get(name)
            .cloned()
            .or_else(|| builtin_signature(name));
        sig.is_some_and(|sig| sig.params.iter().any(|p| p.is_uid_class()))
    }

    /// The globals holding UID-class data (for reporting).
    #[must_use]
    pub fn uid_globals(&self) -> Vec<String> {
        self.uid_globals.iter().cloned().collect()
    }

    // ----- inference ------------------------------------------------------------

    /// Propagates UID-ness through assignments and parameter passing until a
    /// fixpoint: `x = getuid()` marks `x`; `setuid(y)` marks `y`; `x = y`
    /// propagates between variables; functions returning marked values are
    /// marked as UID-returning.
    fn infer_fixpoint(&mut self, program: &Program) {
        loop {
            let mut changed = false;
            for function in &program.functions {
                changed |= self.infer_function(program, function);
            }
            if !changed {
                break;
            }
        }
    }

    fn mark_uid_var(&mut self, function: &Function, name: &str) -> bool {
        let is_local = self
            .type_info
            .locals
            .get(&function.name)
            .is_some_and(|l| l.contains_key(name));
        if is_local {
            self.uid_locals
                .entry(function.name.clone())
                .or_default()
                .insert(name.to_string())
        } else {
            self.uid_globals.insert(name.to_string())
        }
    }

    fn infer_function(&mut self, _program: &Program, function: &Function) -> bool {
        let mut changed = false;
        let mut stack: Vec<&Stmt> = function.body.iter().collect();
        while let Some(stmt) = stack.pop() {
            match stmt {
                Stmt::VarDecl {
                    name,
                    init: Some(init),
                    ..
                } if self.is_uid_expr(&function.name, init) => {
                    changed |= self.mark_uid_var(function, name);
                }
                Stmt::Assign {
                    target: LValue::Var(name),
                    value,
                } if self.is_uid_expr(&function.name, value) => {
                    changed |= self.mark_uid_var(function, name);
                }
                Stmt::Return(Some(value))
                    if self.is_uid_expr(&function.name, value)
                        && !function.ret.is_uid_class()
                        && function.ret != Type::Void =>
                {
                    changed |= self.uid_functions.insert(function.name.clone());
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    stack.extend(then_body.iter());
                    stack.extend(else_body.iter());
                }
                Stmt::While { body, .. } => stack.extend(body.iter()),
                _ => {}
            }
            // Arguments passed where a UID parameter is expected.
            if let Some(exprs) = stmt_expressions(stmt) {
                for expr in exprs {
                    self.infer_from_calls(function, expr, &mut changed);
                }
            }
        }
        changed
    }

    fn infer_from_calls(&mut self, function: &Function, expr: &Expr, changed: &mut bool) {
        match expr {
            Expr::Call(name, args) => {
                let sig = self
                    .type_info
                    .functions
                    .get(name)
                    .cloned()
                    .or_else(|| builtin_signature(name));
                if let Some(sig) = sig {
                    for (param, arg) in sig.params.iter().zip(args) {
                        if param.is_uid_class() {
                            if let Expr::Ident(var) = arg {
                                *changed |= self.mark_uid_var(function, var);
                            }
                        }
                    }
                }
                for arg in args {
                    self.infer_from_calls(function, arg, changed);
                }
            }
            Expr::Unary(_, inner) | Expr::Deref(inner) => {
                self.infer_from_calls(function, inner, changed);
            }
            Expr::Binary(_, lhs, rhs) | Expr::Index(lhs, rhs) => {
                self.infer_from_calls(function, lhs, changed);
                self.infer_from_calls(function, rhs, changed);
            }
            _ => {}
        }
    }

    // ----- taint ---------------------------------------------------------------

    fn mark_tainted(&mut self, function: &Function, name: &str) -> bool {
        let is_local = self
            .type_info
            .locals
            .get(&function.name)
            .is_some_and(|l| l.contains_key(name));
        if is_local {
            self.tainted_locals
                .entry(function.name.clone())
                .or_default()
                .insert(name.to_string())
        } else {
            self.tainted_globals.insert(name.to_string())
        }
    }

    fn taint_fixpoint(&mut self, program: &Program) {
        loop {
            let mut changed = false;
            for function in &program.functions {
                let mut performs_uid_operations = false;
                let mut stack: Vec<&Stmt> = function.body.iter().collect();
                while let Some(stmt) = stack.pop() {
                    match stmt {
                        Stmt::VarDecl {
                            name,
                            init: Some(init),
                            ..
                        } if self.is_tainted_expr(&function.name, init) => {
                            changed |= self.mark_tainted(function, name);
                        }
                        Stmt::Assign {
                            target: LValue::Var(name),
                            value,
                        } if self.is_tainted_expr(&function.name, value) => {
                            changed |= self.mark_tainted(function, name);
                        }
                        Stmt::Return(Some(value))
                            if self.is_tainted_expr(&function.name, value) =>
                        {
                            performs_uid_operations = true;
                        }
                        Stmt::If {
                            then_body,
                            else_body,
                            ..
                        } => {
                            stack.extend(then_body.iter());
                            stack.extend(else_body.iter());
                        }
                        Stmt::While { body, .. } => stack.extend(body.iter()),
                        _ => {}
                    }
                    if let Some(exprs) = stmt_expressions(stmt) {
                        for expr in exprs {
                            if expr_performs_uid_call(self, expr) {
                                performs_uid_operations = true;
                            }
                        }
                    }
                }
                if performs_uid_operations {
                    changed |= self.tainted_functions.insert(function.name.clone());
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Returns `true` if the expression contains a call whose callee is
/// UID-returning, UID-taking, or already known to be UID-influenced.
fn expr_performs_uid_call(ctx: &UidContext, expr: &Expr) -> bool {
    match expr {
        Expr::Call(name, args) => {
            ctx.is_tainted_function(name) || args.iter().any(|a| expr_performs_uid_call(ctx, a))
        }
        Expr::Unary(_, inner) | Expr::Deref(inner) => expr_performs_uid_call(ctx, inner),
        Expr::Binary(_, lhs, rhs) | Expr::Index(lhs, rhs) => {
            expr_performs_uid_call(ctx, lhs) || expr_performs_uid_call(ctx, rhs)
        }
        _ => false,
    }
}

/// The expressions directly contained in a statement (not recursing into
/// nested statements).
fn stmt_expressions(stmt: &Stmt) -> Option<Vec<&Expr>> {
    match stmt {
        Stmt::VarDecl { init, .. } => Some(init.iter().collect()),
        Stmt::Assign { target, value } => {
            let mut exprs = vec![value];
            match target {
                LValue::Index(base, index) => {
                    exprs.push(base);
                    exprs.push(index);
                }
                LValue::Deref(inner) => exprs.push(inner),
                LValue::Var(_) => {}
            }
            Some(exprs)
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => Some(vec![cond]),
        Stmt::Return(value) => Some(value.iter().collect()),
        Stmt::Expr(expr) => Some(vec![expr]),
        Stmt::Break | Stmt::Continue => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_vm::parse_program;

    fn analyze(src: &str) -> UidContext {
        UidContext::analyze(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn declared_uid_types_are_recognized() {
        let ctx = analyze(
            r"
            var server_uid: uid_t;
            var server_gid: gid_t;
            var counter: int;
            fn f(u: uid_t, n: int) -> int { return n; }
            ",
        );
        assert!(ctx.is_uid_var("f", "server_uid"));
        assert!(ctx.is_uid_var("f", "server_gid"));
        assert!(!ctx.is_uid_var("f", "counter"));
        assert!(ctx.is_uid_var("f", "u"));
        assert!(!ctx.is_uid_var("f", "n"));
        assert_eq!(ctx.uid_globals(), vec!["server_gid", "server_uid"]);
    }

    #[test]
    fn dataflow_inference_finds_untyped_uids() {
        // The §4 scenario: the programmer used plain ints.
        let ctx = analyze(
            r"
            var cached: int;
            fn drop_privileges(target: int) -> int {
                return setuid(target);
            }
            fn main() -> int {
                var local: int;
                cached = getuid();
                local = cached;
                return drop_privileges(local);
            }
            ",
        );
        assert!(ctx.is_uid_var("main", "cached"));
        assert!(ctx.is_uid_var("main", "local"));
        assert!(ctx.is_uid_var("drop_privileges", "target"));
    }

    #[test]
    fn uid_returning_user_functions_are_inferred() {
        let ctx = analyze(
            r"
            fn lookup() -> uid_t { return getuid(); }
            fn indirect() -> int { return getuid(); }
            fn plain() -> int { return 3; }
            fn main() -> int { return 0; }
            ",
        );
        assert!(ctx.is_uid_function("lookup"));
        assert!(ctx.is_uid_function("indirect"));
        assert!(!ctx.is_uid_function("plain"));
        assert!(ctx.is_uid_function("getuid"));
        assert!(!ctx.is_uid_function("open"));
    }

    #[test]
    fn uid_expressions_propagate_through_arithmetic_but_not_comparisons() {
        let ctx = analyze("fn f(u: uid_t) -> int { return 0; }");
        let masked = nvariant_vm::Expr::binary(
            nvariant_vm::BinOp::BitXor,
            nvariant_vm::Expr::ident("u"),
            nvariant_vm::Expr::int(0x7FFF_FFFF),
        );
        assert!(ctx.is_uid_expr("f", &masked));
        let compared = nvariant_vm::Expr::binary(
            nvariant_vm::BinOp::Eq,
            nvariant_vm::Expr::ident("u"),
            nvariant_vm::Expr::int(0),
        );
        assert!(!ctx.is_uid_expr("f", &compared));
    }

    #[test]
    fn taint_covers_uid_influenced_results() {
        let ctx = analyze(
            r"
            var flag: int;
            fn main() -> int {
                var rc: int;
                var untouched: int;
                rc = setuid(48);
                flag = rc + 1;
                untouched = 5;
                if (rc != 0) { return 1; }
                return untouched;
            }
            ",
        );
        assert!(ctx.is_tainted("main", "rc"));
        assert!(ctx.is_tainted("main", "flag"));
        assert!(!ctx.is_tainted("main", "untouched"));
        // UID variables are themselves "influenced".
        let ctx2 = analyze("var u: uid_t; fn main() -> int { return 0; }");
        assert!(ctx2.is_tainted("main", "u"));
    }

    #[test]
    fn locals_shadow_globals_for_uid_and_taint_queries() {
        let ctx = analyze(
            r"
            var uid: uid_t;
            fn f() -> int { var uid: int; uid = 3; return uid; }
            fn g() -> int { return 0; }
            ",
        );
        assert!(!ctx.is_uid_var("f", "uid"));
        assert!(ctx.is_uid_var("g", "uid"));
        assert!(!ctx.is_tainted("f", "uid"));
    }

    #[test]
    fn call_takes_uid_args_detection() {
        let ctx = analyze(
            r"
            fn wrapper(u: uid_t) -> int { return setuid(u); }
            fn plain(n: int) -> int { return n; }
            fn main() -> int { return 0; }
            ",
        );
        assert!(ctx.call_takes_uid_args("setuid"));
        assert!(ctx.call_takes_uid_args("wrapper"));
        assert!(ctx.call_takes_uid_args("cc_eq"));
        assert!(!ctx.call_takes_uid_args("plain"));
        assert!(!ctx.call_takes_uid_args("open"));
    }

    #[test]
    fn analyze_rejects_ill_typed_programs() {
        let program = parse_program("fn main() -> int { return missing; }").unwrap();
        assert!(UidContext::analyze(&program).is_err());
    }
}
