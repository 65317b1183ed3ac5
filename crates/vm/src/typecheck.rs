//! Name resolution and type checking for SimC.
//!
//! Besides rejecting malformed programs, the checker produces a [`TypeInfo`]
//! summary (declared type of every global and local, signatures of every
//! function) that the UID transformation in `nvariant-transform` consumes to
//! decide *which* values are UID-class data — exactly the "identify the
//! variables that contain UID values" step the paper describes in §4.

use crate::ast::{BinOp, Expr, Function, LValue, Program, Stmt, Type, UnOp};
use nvariant_simos::Sysno;
use std::collections::BTreeMap;
use std::fmt;

/// A function signature (parameter types and return type).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionSig {
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

/// Errors detected by the type checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError {
    /// Human-readable description of the problem.
    pub message: String,
    /// The function in which the problem occurred, if any.
    pub function: Option<String>,
}

impl TypeError {
    fn new(message: impl Into<String>, function: Option<&str>) -> Self {
        TypeError {
            message: message.into(),
            function: function.map(str::to_string),
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(function) => write!(f, "type error in `{function}`: {}", self.message),
            None => write!(f, "type error: {}", self.message),
        }
    }
}

impl std::error::Error for TypeError {}

/// The type environment produced by a successful check.
///
/// # Example
///
/// ```
/// use nvariant_vm::{parse_program, typecheck_program, Type};
///
/// let program = parse_program(r#"
///     var server_uid: uid_t;
///     fn main() -> int {
///         var n: int = 3;
///         server_uid = getuid();
///         return n;
///     }
/// "#)?;
/// let info = typecheck_program(&program)?;
/// assert_eq!(info.var_type("main", "server_uid"), Some(Type::UidT));
/// assert_eq!(info.var_type("main", "n"), Some(Type::Int));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TypeInfo {
    /// Declared type of every global.
    pub globals: BTreeMap<String, Type>,
    /// Signature of every user-defined function.
    pub functions: BTreeMap<String, FunctionSig>,
    /// Per-function table of locals and parameters.
    pub locals: BTreeMap<String, BTreeMap<String, Type>>,
}

impl TypeInfo {
    /// Looks up the declared type of `name` as seen from inside `function`:
    /// locals and parameters shadow globals.
    #[must_use]
    pub fn var_type(&self, function: &str, name: &str) -> Option<Type> {
        if let Some(locals) = self.locals.get(function) {
            if let Some(ty) = locals.get(name) {
                return Some(*ty);
            }
        }
        self.globals.get(name).copied()
    }

    /// Returns the signature of a user-defined or built-in function.
    #[must_use]
    pub fn signature(&self, name: &str) -> Option<FunctionSig> {
        self.functions
            .get(name)
            .cloned()
            .or_else(|| builtin_signature(name))
    }

    /// Best-effort static type of an expression evaluated inside `function`.
    ///
    /// The rules mirror how the paper's transformation reasons about UID
    /// data: comparisons and logical operators produce `int`; arithmetic and
    /// bitwise operators propagate UID-ness from either operand (so
    /// `uid ^ 0x7FFFFFFF` is still a UID); calls take their declared return
    /// type; everything unresolvable defaults to `int`.
    #[must_use]
    pub fn expr_type(&self, function: &str, expr: &Expr) -> Type {
        match expr {
            Expr::IntLit(_) => Type::Int,
            Expr::StrLit(_) => Type::Ptr,
            Expr::Ident(name) => self.var_type(function, name).unwrap_or(Type::Int),
            Expr::AddrOf(_) => Type::Ptr,
            Expr::Deref(_) | Expr::Index(_, _) => Type::Int,
            Expr::Unary(UnOp::Not, _) => Type::Int,
            Expr::Unary(_, inner) => self.expr_type(function, inner),
            Expr::Binary(op, lhs, rhs) => {
                if op.is_comparison() || matches!(op, BinOp::LogAnd | BinOp::LogOr) {
                    Type::Int
                } else {
                    let lt = self.expr_type(function, lhs);
                    let rt = self.expr_type(function, rhs);
                    if lt.is_uid_class() {
                        lt
                    } else if rt.is_uid_class() {
                        rt
                    } else {
                        Type::Int
                    }
                }
            }
            Expr::Call(name, _) => self.signature(name).map_or(Type::Int, |sig| sig.ret),
        }
    }

    /// Returns `true` if the expression statically denotes UID-class data.
    #[must_use]
    pub fn is_uid_expr(&self, function: &str, expr: &Expr) -> bool {
        self.expr_type(function, expr).is_uid_class()
    }
}

/// The signature of a built-in system call, if `name` names one.
///
/// These are the signatures the paper's §4 dataflow analysis relies on
/// ("functions returning a known uid value (e.g. getuid) or … a function
/// expecting a user id (e.g. setuid)").
#[must_use]
pub fn builtin_signature(name: &str) -> Option<FunctionSig> {
    let sysno = Sysno::from_name(name)?;
    let sig = match sysno {
        Sysno::Exit => FunctionSig {
            params: vec![Type::Int],
            ret: Type::Void,
        },
        Sysno::GetUid | Sysno::GetEuid => FunctionSig {
            params: vec![],
            ret: Type::UidT,
        },
        Sysno::GetGid => FunctionSig {
            params: vec![],
            ret: Type::GidT,
        },
        Sysno::SetUid | Sysno::SetEuid => FunctionSig {
            params: vec![Type::UidT],
            ret: Type::Int,
        },
        Sysno::SetGid => FunctionSig {
            params: vec![Type::GidT],
            ret: Type::Int,
        },
        Sysno::SetReUid => FunctionSig {
            params: vec![Type::UidT, Type::UidT],
            ret: Type::Int,
        },
        Sysno::Open => FunctionSig {
            params: vec![Type::Ptr, Type::Int],
            ret: Type::Int,
        },
        Sysno::Read | Sysno::Write | Sysno::Recv | Sysno::Send => FunctionSig {
            params: vec![Type::Int, Type::Ptr, Type::Int],
            ret: Type::Int,
        },
        Sysno::Close | Sysno::Listen | Sysno::Accept => FunctionSig {
            params: vec![Type::Int],
            ret: Type::Int,
        },
        Sysno::Socket | Sysno::Time => FunctionSig {
            params: vec![],
            ret: Type::Int,
        },
        Sysno::Bind => FunctionSig {
            params: vec![Type::Int, Type::Int],
            ret: Type::Int,
        },
        Sysno::UidValue => FunctionSig {
            params: vec![Type::UidT],
            ret: Type::UidT,
        },
        Sysno::CondChk => FunctionSig {
            params: vec![Type::Int],
            ret: Type::Int,
        },
        Sysno::CcEq | Sysno::CcNeq | Sysno::CcLt | Sysno::CcLeq | Sysno::CcGt | Sysno::CcGeq => {
            FunctionSig {
                params: vec![Type::UidT, Type::UidT],
                ret: Type::Int,
            }
        }
        // `Sysno` is non-exhaustive; new calls default to unavailable until a
        // signature is added here.
        _ => return None,
    };
    Some(sig)
}

/// Type-checks a program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found: duplicate definitions, references
/// to undefined variables or functions, calls with the wrong number of
/// arguments, direct assignment to buffer variables, or use of `void` in a
/// value position.
pub fn typecheck_program(program: &Program) -> Result<TypeInfo, TypeError> {
    let mut info = TypeInfo::default();

    for global in &program.globals {
        if global.ty == Type::Void {
            return Err(TypeError::new(
                format!("global `{}` cannot have type void", global.name),
                None,
            ));
        }
        if info
            .globals
            .insert(global.name.clone(), global.ty)
            .is_some()
        {
            return Err(TypeError::new(
                format!("duplicate global `{}`", global.name),
                None,
            ));
        }
        if let Some(init) = &global.init {
            match init {
                Expr::IntLit(_) | Expr::StrLit(_) => {}
                other => {
                    return Err(TypeError::new(
                        format!(
                            "global `{}` initializer must be a constant, found {other:?}",
                            global.name
                        ),
                        None,
                    ))
                }
            }
        }
    }

    for function in &program.functions {
        if builtin_signature(&function.name).is_some() {
            return Err(TypeError::new(
                format!(
                    "function `{}` shadows a built-in system call",
                    function.name
                ),
                None,
            ));
        }
        let sig = FunctionSig {
            params: function.params.iter().map(|p| p.ty).collect(),
            ret: function.ret,
        };
        if info.functions.insert(function.name.clone(), sig).is_some() {
            return Err(TypeError::new(
                format!("duplicate function `{}`", function.name),
                None,
            ));
        }
    }

    for function in &program.functions {
        check_function(program, &mut info, function)?;
    }

    Ok(info)
}

fn check_function(
    _program: &Program,
    info: &mut TypeInfo,
    function: &Function,
) -> Result<(), TypeError> {
    let mut locals: BTreeMap<String, Type> = BTreeMap::new();
    for param in &function.params {
        if param.ty == Type::Void {
            return Err(TypeError::new(
                format!("parameter `{}` cannot have type void", param.name),
                Some(&function.name),
            ));
        }
        if matches!(param.ty, Type::Buf(_)) {
            return Err(TypeError::new(
                format!(
                    "parameter `{}` cannot be a buffer; pass a pointer instead",
                    param.name
                ),
                Some(&function.name),
            ));
        }
        if locals.insert(param.name.clone(), param.ty).is_some() {
            return Err(TypeError::new(
                format!("duplicate parameter `{}`", param.name),
                Some(&function.name),
            ));
        }
    }
    // Two passes over the body: first collect declarations (SimC requires
    // declaration before use, enforced during the statement walk below), then
    // validate statements with the accumulating scope.
    check_block(info, function, &mut locals, &function.body)?;
    info.locals.insert(function.name.clone(), locals);
    Ok(())
}

fn check_block(
    info: &TypeInfo,
    function: &Function,
    locals: &mut BTreeMap<String, Type>,
    stmts: &[Stmt],
) -> Result<(), TypeError> {
    for stmt in stmts {
        check_stmt(info, function, locals, stmt)?;
    }
    Ok(())
}

fn check_stmt(
    info: &TypeInfo,
    function: &Function,
    locals: &mut BTreeMap<String, Type>,
    stmt: &Stmt,
) -> Result<(), TypeError> {
    let fname = Some(function.name.as_str());
    match stmt {
        Stmt::VarDecl { name, ty, init } => {
            if *ty == Type::Void {
                return Err(TypeError::new(
                    format!("local `{name}` cannot have type void"),
                    fname,
                ));
            }
            if locals.insert(name.clone(), *ty).is_some() {
                return Err(TypeError::new(format!("duplicate local `{name}`"), fname));
            }
            if let Some(init) = init {
                if matches!(ty, Type::Buf(_)) {
                    return Err(TypeError::new(
                        format!("buffer `{name}` cannot have an initializer"),
                        fname,
                    ));
                }
                check_expr(info, function, locals, init)?;
            }
            Ok(())
        }
        Stmt::Assign { target, value } => {
            match target {
                LValue::Var(name) => {
                    let ty = locals
                        .get(name)
                        .copied()
                        .or_else(|| info.globals.get(name).copied())
                        .ok_or_else(|| {
                            TypeError::new(
                                format!("assignment to undefined variable `{name}`"),
                                fname,
                            )
                        })?;
                    if matches!(ty, Type::Buf(_)) {
                        return Err(TypeError::new(
                            format!("cannot assign directly to buffer `{name}`; index it instead"),
                            fname,
                        ));
                    }
                }
                LValue::Index(base, index) => {
                    check_expr(info, function, locals, base)?;
                    check_expr(info, function, locals, index)?;
                }
                LValue::Deref(inner) => check_expr(info, function, locals, inner)?,
            }
            check_expr(info, function, locals, value)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            check_expr(info, function, locals, cond)?;
            check_block(info, function, locals, then_body)?;
            check_block(info, function, locals, else_body)
        }
        Stmt::While { cond, body } => {
            check_expr(info, function, locals, cond)?;
            check_block(info, function, locals, body)
        }
        Stmt::Return(value) => {
            if let Some(value) = value {
                check_expr(info, function, locals, value)?;
            } else if function.ret != Type::Void {
                return Err(TypeError::new(
                    "return without a value in a non-void function",
                    fname,
                ));
            }
            Ok(())
        }
        Stmt::Expr(expr) => check_expr(info, function, locals, expr),
        Stmt::Break | Stmt::Continue => Ok(()),
    }
}

fn check_expr(
    info: &TypeInfo,
    function: &Function,
    locals: &BTreeMap<String, Type>,
    expr: &Expr,
) -> Result<(), TypeError> {
    let fname = Some(function.name.as_str());
    match expr {
        Expr::IntLit(_) | Expr::StrLit(_) => Ok(()),
        Expr::Ident(name) => {
            if locals.contains_key(name) || info.globals.contains_key(name) {
                Ok(())
            } else {
                Err(TypeError::new(
                    format!("reference to undefined variable `{name}`"),
                    fname,
                ))
            }
        }
        Expr::AddrOf(name) => {
            if locals.contains_key(name) || info.globals.contains_key(name) {
                Ok(())
            } else {
                Err(TypeError::new(
                    format!("address-of undefined variable `{name}`"),
                    fname,
                ))
            }
        }
        Expr::Unary(_, inner) | Expr::Deref(inner) => check_expr(info, function, locals, inner),
        Expr::Binary(_, lhs, rhs) | Expr::Index(lhs, rhs) => {
            check_expr(info, function, locals, lhs)?;
            check_expr(info, function, locals, rhs)
        }
        Expr::Call(name, args) => {
            let sig = info
                .functions
                .get(name)
                .cloned()
                .or_else(|| builtin_signature(name));
            let Some(sig) = sig else {
                return Err(TypeError::new(
                    format!("call to undefined function `{name}`"),
                    fname,
                ));
            };
            if sig.params.len() != args.len() {
                return Err(TypeError::new(
                    format!(
                        "`{name}` expects {} argument(s), found {}",
                        sig.params.len(),
                        args.len()
                    ),
                    fname,
                ));
            }
            for arg in args {
                check_expr(info, function, locals, arg)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<TypeInfo, TypeError> {
        typecheck_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_well_typed_program() {
        let info = check(
            r#"
            var server_uid: uid_t;
            var logbuf: buf[32];
            fn lookup(name: ptr) -> uid_t {
                var uid: uid_t;
                uid = getuid();
                return uid;
            }
            fn main() -> int {
                server_uid = lookup("httpd");
                if (server_uid == 0) { return 1; }
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(info.globals.get("server_uid"), Some(&Type::UidT));
        assert_eq!(info.var_type("lookup", "uid"), Some(Type::UidT));
        assert_eq!(info.var_type("lookup", "name"), Some(Type::Ptr));
        assert_eq!(info.signature("lookup").unwrap().ret, Type::UidT);
        assert_eq!(info.signature("getuid").unwrap().ret, Type::UidT);
    }

    #[test]
    fn rejects_undefined_names() {
        assert!(check("fn f() -> int { return missing; }").is_err());
        assert!(check("fn f() -> int { return nosuchfn(); }").is_err());
        assert!(check("fn f() -> int { return *(&missing); }").is_err());
    }

    #[test]
    fn rejects_duplicates_and_shadowing_builtins() {
        assert!(check("var x: int; var x: int; fn main() -> int { return 0; }").is_err());
        assert!(check("fn f(a: int, a: int) -> int { return a; }").is_err());
        assert!(check("fn f() -> int { var a: int; var a: int; return a; }").is_err());
        assert!(check("fn getuid() -> uid_t { return 0; }").is_err());
        assert!(check("fn f() -> int { return 0; } fn f() -> int { return 1; }").is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(check("fn f() -> int { return setuid(); }").is_err());
        assert!(check("fn f() -> int { return setuid(1, 2); }").is_err());
        assert!(check("fn g(a: int) -> int { return a; } fn f() -> int { return g(); }").is_err());
    }

    #[test]
    fn rejects_buffer_misuse() {
        assert!(check("fn f() { var b: buf[8]; b = 3; }").is_err());
        assert!(check("fn f(b: buf[8]) { }").is_err());
        assert!(check("fn f() { var b: buf[8] = 1; }").is_err());
        // Indexing a buffer is fine.
        assert!(check("fn f() -> int { var b: buf[8]; b[0] = 1; return b[0]; }").is_ok());
    }

    #[test]
    fn rejects_void_misuse_and_bad_globals() {
        assert!(check("var g: void; fn main() -> int { return 0; }").is_err());
        assert!(check("fn f(x: void) { }").is_err());
        assert!(check("fn f() { var v: void; }").is_err());
        assert!(check("var g: int = getuid(); fn main() -> int { return 0; }").is_err());
        assert!(check("fn f() -> int { return; }").is_err());
    }

    #[test]
    fn expr_type_propagates_uid_class() {
        use crate::ast::Expr;
        let info = check(
            r"
            var server_uid: uid_t;
            fn f(u: uid_t, n: int) -> int {
                return 0;
            }
            ",
        )
        .unwrap();
        // uid ^ mask is still a UID.
        let xor = Expr::binary(BinOp::BitXor, Expr::ident("u"), Expr::int(0x7FFF_FFFF));
        assert_eq!(info.expr_type("f", &xor), Type::UidT);
        assert!(info.is_uid_expr("f", &Expr::call("getuid", vec![])));
        // Comparisons yield int even over UIDs.
        let cmp = Expr::binary(BinOp::Eq, Expr::ident("u"), Expr::int(0));
        assert_eq!(info.expr_type("f", &cmp), Type::Int);
        assert!(!info.is_uid_expr("f", &Expr::ident("n")));
        // Globals are visible from any function.
        assert!(info.is_uid_expr("f", &Expr::ident("server_uid")));
    }

    #[test]
    fn builtin_signatures_cover_detection_calls() {
        assert_eq!(builtin_signature("uid_value").unwrap().ret, Type::UidT);
        assert_eq!(builtin_signature("cc_geq").unwrap().params.len(), 2);
        assert_eq!(
            builtin_signature("cond_chk").unwrap().params,
            vec![Type::Int]
        );
        assert!(builtin_signature("strcpy").is_none());
    }

    #[test]
    fn locals_shadow_globals() {
        let info = check(
            r"
            var uid: int;
            fn f() -> uid_t { var uid: uid_t; uid = getuid(); return uid; }
            fn g() -> int { return uid; }
            ",
        )
        .unwrap();
        assert_eq!(info.var_type("f", "uid"), Some(Type::UidT));
        assert_eq!(info.var_type("g", "uid"), Some(Type::Int));
    }
}
